/**
 * @file
 * Attribution profiler tests: the busy+stall+idle == span invariant on
 * a real simulated run, the report's JSON schema, same-seed byte
 * stability, and the synthetic-event accounting paths.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prof/report.hh"
#include "runtime/machine.hh"

namespace tsm {
namespace {

/**
 * The micro_harness traced scenario, in-process: four flows fanning
 * into TSP 0, SSN-scheduled and executed on chips with the profiler
 * attached.
 */
void
runScenario(ProfileCollector &prof)
{
    std::vector<TensorTransfer> transfers;
    for (unsigned f = 0; f < 4; ++f) {
        TensorTransfer t;
        t.flow = f + 1;
        t.src = TspId(f + 1);
        t.dst = 0;
        t.vectors = 8;
        transfers.push_back(t);
    }
    const auto compiled = compileTransfers(Topology::makeNode(), transfers);
    Machine(compiled.value(), 1).run({&prof}, "profiler_test");
    prof.finish();
}

TEST(Profiler, AttributionSumsToSpan)
{
    ProfileCollector prof;
    runScenario(prof);
    const ProfilerSink &sink = prof.sink();

    ASSERT_FALSE(sink.chips().empty());
    for (const auto &[id, acct] : sink.chips()) {
        EXPECT_EQ(acct.busyTotal() + acct.stall + acct.idle,
                  acct.totalCycles())
            << "chip " << id;
        EXPECT_TRUE(acct.halted) << "chip " << id;
    }
    // The four sources and the sink chip all executed instructions.
    for (TspId t = 0; t < 5; ++t) {
        ASSERT_TRUE(sink.chips().count(t));
        EXPECT_GT(sink.chips().at(t).instrs, 0u) << "chip " << t;
    }
    EXPECT_GT(sink.events(), 0u);
    EXPECT_GT(sink.spanPs(), 0u);
    // 4 flows x 8 vectors, each at least one hop.
    EXPECT_GE(sink.totalFlits(), 32u);
    EXPECT_GE(sink.sendEvents(), 32u);
    EXPECT_GE(sink.recvEvents(), 32u);
    EXPECT_GT(sink.lastRecvTick(), 0u);
    // Consuming Recvs pair with arrivals into the delay histogram.
    EXPECT_GE(sink.queueDelayAll().count(), 32u);
    EXPECT_LE(sink.queueDelayAll().count(), sink.recvEvents());
}

TEST(Profiler, ReportSchemaGolden)
{
    ProfileCollector prof;
    runScenario(prof);
    const Json report = prof.report();

    EXPECT_EQ(report["schema"].str(), kProfileSchema);
    EXPECT_EQ(report["bench"].str(), "profiler_test");
    EXPECT_EQ(report["seed"].integer(), 1);

    const std::vector<std::string> top = {
        "schema", "bench",          "seed", "cycles", "sim",
        "throughput", "chips",      "links", "queue_delay_ps",
        "transfers", "transfers_summary", "hac", "ssn"};
    ASSERT_EQ(report.members().size(), top.size());
    for (std::size_t i = 0; i < top.size(); ++i)
        EXPECT_EQ(report.members()[i].first, top[i]) << "key " << i;

    const std::vector<std::string> ssnKeys = {
        "makespan_cycles",  "critical_path_cycles",
        "predicted_completion_cycles", "simulated",
        "simulated_completion_cycles", "gap_cycles",
        "hops_total",       "contended_hops",
        "contention_free",  "hop_slack_cycles",
        "decomposition",    "critical_path",
        "critical_path_hops", "critical_path_truncated"};
    const Json &ssn = report["ssn"];
    ASSERT_EQ(ssn.members().size(), ssnKeys.size());
    for (std::size_t i = 0; i < ssnKeys.size(); ++i)
        EXPECT_EQ(ssn.members()[i].first, ssnKeys[i]) << "ssn key " << i;
    EXPECT_TRUE(ssn["simulated"].boolean());

    // Per-chip entries carry the attribution breakdown.
    ASSERT_GT(report["chips"].size(), 0u);
    const Json &c0 = report["chips"].at(0);
    for (const char *key : {"id", "total_cycles", "instrs", "halted",
                            "busy", "stall", "idle", "util", "busy_frac",
                            "stall_frac", "idle_frac"})
        EXPECT_TRUE(c0.has(key)) << key;

    // Link entries attribute FEC drops; transfer entries carry the
    // exact waterfall decomposition.
    ASSERT_GT(report["links"].size(), 0u);
    EXPECT_TRUE(report["links"].at(0).has("dropped_flits"));
    ASSERT_GT(report["transfers"].size(), 0u);
    for (const Json &t : report["transfers"].items()) {
        for (const char *key :
             {"flow", "seq", "src", "dst", "legs", "open_ps", "close_ps",
              "total_ps", "serialize_ps", "flight_ps", "forward_ps",
              "wait_ps", "mbes", "closed", "exact"})
            EXPECT_TRUE(t.has(key)) << key;
        EXPECT_TRUE(t["closed"].boolean());
        EXPECT_TRUE(t["exact"].boolean());
        EXPECT_EQ(t["serialize_ps"].integer() + t["flight_ps"].integer() +
                      t["forward_ps"].integer() + t["wait_ps"].integer(),
                  t["total_ps"].integer());
    }
    EXPECT_EQ(report["transfers_summary"]["closed"].integer(),
              report["transfers_summary"]["exact"].integer());

    // The document round-trips through the parser.
    std::string error;
    const Json back = Json::parse(report.dump(2), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.dump(2), report.dump(2));

    // The human renderer accepts it.
    const std::string summary = renderProfileSummary(report);
    EXPECT_NE(summary.find("tsm profile: profiler_test"),
              std::string::npos);
    EXPECT_NE(summary.find("critical path"), std::string::npos);
}

TEST(Profiler, SameSeedReportsAreByteIdentical)
{
    ProfileCollector a, b;
    runScenario(a);
    runScenario(b);
    EXPECT_EQ(a.report().dump(2), b.report().dump(2));
}

TEST(Profiler, HacTelemetryFromSyncEvents)
{
    ProfilerSink sink;
    sink.event({100, 0, TraceCat::Sync, TraceOp::HacTx, 0, 0, 0});
    sink.event({200, 0, TraceCat::Sync, TraceOp::HacAdj, 2, -5, 3});
    sink.event({300, 0, TraceCat::Sync, TraceOp::HacAdj, 3, 2, -1});
    sink.finish();

    const HacAccount &hac = sink.hac();
    EXPECT_EQ(hac.updatesSent, 1u);
    EXPECT_EQ(hac.adjustments, 2u);
    EXPECT_EQ(hac.sumAbsDelta, 7u);
    EXPECT_EQ(hac.maxAbsDelta, 5u);
    EXPECT_EQ(hac.sumAbsStep, 4u);
    ASSERT_EQ(hac.timeline.size(), 2u);
    EXPECT_EQ(hac.timeline[0].tick, 200u);
    EXPECT_EQ(hac.timeline[0].delta, -5);
    EXPECT_EQ(hac.timeline[0].step, 3);
}

TEST(Profiler, QueueDelayPairsArrivalWithRecv)
{
    ProfilerSink sink;
    // Flit of flow 3 seq 0 lands on link 7 at t=1000; the scheduled
    // Recv consumes it at t=3500.
    sink.event({1000, 0, TraceCat::Net, TraceOp::Rx, 7, 3, 0});
    sink.event({3500, 0, TraceCat::Ssn, TraceOp::Recv, 0, 3, 0});
    sink.finish();

    EXPECT_EQ(sink.queueDelayAll().count(), 1u);
    EXPECT_EQ(sink.queueDelayAll().min(), 2500u);
    const Log2Histogram *h = sink.queueDelay(7);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
    EXPECT_EQ(sink.queueDelay(8), nullptr);
    EXPECT_EQ(sink.recvEvents(), 1u);
    EXPECT_EQ(sink.lastRecvTick(), 3500u);
}

} // namespace
} // namespace tsm
