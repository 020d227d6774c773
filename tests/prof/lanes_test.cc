/**
 * Concurrency-profiler invariants (prof/lanes.hh):
 *
 *  - reconciliation: per-kind lane totals and per-phase counts each
 *    sum exactly to the live event total, on synthetic streams and on
 *    real scenario runs alike;
 *  - degenerate profiles are exact, not approximate: a zero-event run
 *    projects bound 1.0, a single-lane run projects exactly 1.0 for
 *    every pool size, and an all-cross-lane ping-pong collapses the
 *    bound onto the critical path;
 *  - genuinely parallel phases project the arithmetic the header
 *    promises: bound(W) = total / max(sum of per-phase steps,
 *    critical path);
 *  - determinism: identical streams emit byte-identical
 *    tsm-parallel-v1 documents, and so do same-seed scenario runs;
 *  - the checker catches tampered totals and rejects foreign
 *    documents instead of asserting on them.
 */

#include <gtest/gtest.h>

#include <string>

#include "prof/lanes.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "trace/span.hh"

namespace tsm {
namespace {

/** One live chip-lane event (an instruction retire, never a replay op). */
TraceEvent
chipEvent(Tick tick, std::uint32_t chip, SpanId span = kSpanNone)
{
    TraceEvent ev;
    ev.tick = tick;
    ev.dur = 100;
    ev.cat = TraceCat::Chip;
    ev.actor = chip;
    ev.op = TraceOp(Op::Compute);
    ev.span = span;
    return ev;
}

/** A small two-flow scenario for the end-to-end checks. */
Scenario
smallScenario()
{
    Scenario sc;
    sc.name = "lanes_test_pair";
    sc.seed = 7;
    for (FlowId flow = 1; flow <= 2; ++flow) {
        ScenarioFlow f;
        f.id = flow;
        f.src = TspId(flow);
        f.dst = 0;
        f.tensor.vectors = 16;
        sc.flows.push_back(f);
    }
    return sc;
}

TEST(Lanes, ConservativeLookaheadTracksFastestLink)
{
    // A full-mesh node is all intra-node links, so the minimum equals
    // the intra-node default exactly.
    const Topology node = Topology::makeNode();
    EXPECT_EQ(conservativeLookaheadPs(node), kDefaultLookaheadPs);

    // A two-level system adds slower inter-rack links; the minimum
    // must stay the fastest class, not grow with the topology.
    const Topology system = Topology::makeTwoLevel(2);
    EXPECT_EQ(conservativeLookaheadPs(system), kDefaultLookaheadPs);
}

TEST(Lanes, ZeroEventRunProjectsExactlyOne)
{
    LaneCollector collector;
    collector.setBench("lanes_test_empty");
    const Json doc = collector.report();

    EXPECT_EQ(doc["schema"].str(), kLanesSchema);
    EXPECT_EQ(doc["totals"]["events"].integer(), 0);
    EXPECT_EQ(doc["lanes_total"].integer(), 0);
    EXPECT_EQ(doc["phases"]["count"].integer(), 0);
    EXPECT_EQ(doc["critical_path"]["events"].integer(), 0);
    for (const Json &s : doc["speedup"].items())
        EXPECT_EQ(s["bound"].number(), 1.0);
    EXPECT_EQ(doc["speedup_inf"].number(), 1.0);

    std::string why;
    EXPECT_TRUE(checkLanesInvariants(doc, &why)) << why;
}

TEST(Lanes, SingleLaneBoundsAreExactlyOne)
{
    // One chip, events spread over several phases: every phase's
    // busiest lane is the whole phase, so no pool size helps and the
    // bound must be exactly 1.0, not approximately.
    LaneCollector collector;
    collector.setBench("lanes_test_serial");
    collector.sink().setLookahead(1000);
    for (Tick t = 0; t < 10; ++t)
        collector.sink().event(chipEvent(t * 700, 0));
    const Json doc = collector.report();

    EXPECT_EQ(doc["totals"]["events"].integer(), 10);
    EXPECT_EQ(doc["lanes_total"].integer(), 1);
    EXPECT_EQ(doc["critical_path"]["events"].integer(), 10);
    for (const Json &s : doc["speedup"].items())
        EXPECT_EQ(s["bound"].number(), 1.0);
    EXPECT_EQ(doc["speedup_inf"].number(), 1.0);

    std::string why;
    EXPECT_TRUE(checkLanesInvariants(doc, &why)) << why;
}

TEST(Lanes, AllCrossLanePingPongCollapsesToCriticalPath)
{
    // Two chips handing one span back and forth: every event but the
    // first depends on the other lane, the critical path spans the
    // whole stream, and the projected bound collapses to 1.0 even
    // though two lanes exist.
    LaneCollector collector;
    collector.setBench("lanes_test_pingpong");
    collector.sink().setLookahead(1000 * 1000);
    const SpanId span = transferSpan(1, 0);
    constexpr std::uint64_t kEvents = 12;
    for (std::uint64_t i = 0; i < kEvents; ++i)
        collector.sink().event(
            chipEvent(Tick(i) * 10, std::uint32_t(i % 2), span));
    const Json doc = collector.report();

    EXPECT_EQ(doc["totals"]["events"].integer(),
              std::int64_t(kEvents));
    EXPECT_EQ(doc["lanes_total"].integer(), 2);
    EXPECT_EQ(doc["totals"]["cross_lane_events"].integer(),
              std::int64_t(kEvents - 1));
    EXPECT_EQ(doc["totals"]["same_phase_cross_lane"].integer(),
              std::int64_t(kEvents - 1));
    EXPECT_EQ(doc["critical_path"]["events"].integer(),
              std::int64_t(kEvents));
    for (const Json &s : doc["speedup"].items())
        EXPECT_EQ(s["bound"].number(), 1.0);
    EXPECT_EQ(doc["speedup_inf"].number(), 1.0);

    std::string why;
    EXPECT_TRUE(checkLanesInvariants(doc, &why)) << why;
}

TEST(Lanes, IndependentLanesProjectThePhaseBarrierArithmetic)
{
    // Four chips, eight independent events each, one phase: total 32,
    // busiest lane 8, critical path 8 (the per-lane chains). bound(2)
    // = 32/16 = 2, bound(4) = 32/8 = 4, and 8/16 workers stay capped
    // at the busiest lane / critical path: 4.
    LaneCollector collector;
    collector.setBench("lanes_test_parallel");
    collector.sink().setLookahead(1000 * 1000);
    for (std::uint32_t chip = 0; chip < 4; ++chip)
        for (Tick t = 0; t < 8; ++t)
            collector.sink().event(chipEvent(t * 10, chip));
    const Json doc = collector.report();

    EXPECT_EQ(doc["totals"]["events"].integer(), 32);
    EXPECT_EQ(doc["lanes_total"].integer(), 4);
    EXPECT_EQ(doc["phases"]["count"].integer(), 1);
    EXPECT_EQ(doc["critical_path"]["events"].integer(), 8);

    const Json &speedup = doc["speedup"];
    ASSERT_EQ(speedup.size(), 4u);
    EXPECT_EQ(speedup.at(0)["workers"].integer(), 2);
    EXPECT_EQ(speedup.at(0)["bound"].number(), 2.0);
    EXPECT_EQ(speedup.at(1)["bound"].number(), 4.0);
    EXPECT_EQ(speedup.at(2)["bound"].number(), 4.0);
    EXPECT_EQ(speedup.at(3)["bound"].number(), 4.0);
    EXPECT_EQ(doc["speedup_inf"].number(), 4.0);

    std::string why;
    EXPECT_TRUE(checkLanesInvariants(doc, &why)) << why;
}

TEST(Lanes, ScheduleReplayEventsStayOutOfEveryLane)
{
    LaneCollector collector;
    for (TraceOp op : {TraceOp::Hop, TraceOp::Flow, TraceOp::Makespan}) {
        TraceEvent ev;
        ev.cat = TraceCat::Ssn;
        ev.op = op;
        collector.sink().event(ev);
    }
    // A live Ssn event (a chip's send) still lands in its chip lane.
    TraceEvent send;
    send.cat = TraceCat::Ssn;
    send.op = TraceOp::Send;
    send.actor = 3;
    collector.sink().event(send);

    const Json doc = collector.report();
    EXPECT_EQ(doc["totals"]["schedule_events"].integer(), 3);
    EXPECT_EQ(doc["totals"]["events"].integer(), 1);
    EXPECT_EQ(doc["lanes_total"].integer(), 1);
    EXPECT_EQ(doc["lanes"].at(0)["kind"].str(), "chip");

    std::string why;
    EXPECT_TRUE(checkLanesInvariants(doc, &why)) << why;
}

TEST(Lanes, ReportIsByteDeterministic)
{
    auto build = [] {
        LaneCollector c;
        c.setBench("lanes_test_det");
        c.setSeed(11);
        c.sink().setLookahead(5000);
        const SpanId span = transferSpan(2, 5);
        for (Tick t = 0; t < 20; ++t)
            c.sink().event(
                chipEvent(t * 900, std::uint32_t(t % 3), span));
        return c.report().dump(2);
    };
    const std::string a = build();
    const std::string b = build();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    const ScenarioExecution x = executeScenario(smallScenario());
    const ScenarioExecution y = executeScenario(smallScenario());
    ASSERT_FALSE(x.lanesText.empty());
    EXPECT_EQ(x.lanesText, y.lanesText);
}

TEST(Lanes, ScenarioRunReconcilesAndRenders)
{
    const ScenarioExecution exec = executeScenario(smallScenario());
    std::string why;
    EXPECT_TRUE(exec.lanesReconcile(&why)) << why;

    // A scheduled run exercises chip work and data-flow link legs
    // (the sync lane needs HAC traffic, which plain scheduled runs
    // skip), plus the excluded schedule replay.
    EXPECT_GT(exec.lanes["totals"]["events"].integer(), 0);
    EXPECT_GT(exec.lanes["totals"]["schedule_events"].integer(), 0);
    const Json &kinds = exec.lanes["lane_kinds"];
    ASSERT_EQ(kinds.size(), 3u);
    EXPECT_EQ(kinds.at(0)["kind"].str(), "chip");
    EXPECT_GT(kinds.at(0)["lanes"].integer(), 0);
    EXPECT_EQ(kinds.at(1)["kind"].str(), "link");
    EXPECT_GT(kinds.at(1)["lanes"].integer(), 0);

    const std::string summary = renderLanesSummary(exec.lanes);
    EXPECT_NE(summary.find("lanes_test_pair"), std::string::npos);
    EXPECT_NE(summary.find("speedup bounds"), std::string::npos);
    EXPECT_NE(summary.find("phase ribbon"), std::string::npos);
}

TEST(Lanes, CheckerCatchesTamperedTotals)
{
    const ScenarioExecution exec = executeScenario(smallScenario());
    ASSERT_TRUE(checkLanesInvariants(exec.lanes));

    // Inflate the live total: neither the lane kinds nor the phases
    // reconcile with it any more.
    Json tampered = exec.lanes;
    Json totals = tampered["totals"];
    totals.set("events",
               Json(std::uint64_t(totals["events"].integer()) + 1));
    tampered.set("totals", totals);
    std::string why;
    EXPECT_FALSE(checkLanesInvariants(tampered, &why));
    EXPECT_FALSE(why.empty());
}

TEST(Lanes, CheckerRejectsForeignDocuments)
{
    std::string why;
    EXPECT_FALSE(checkLanesInvariants(Json(), &why));
    EXPECT_FALSE(why.empty());

    Json wrong = Json::object();
    wrong.set("schema", Json("tsm-blame-v1"));
    EXPECT_FALSE(checkLanesInvariants(wrong));

    // Right schema but missing sections must fail, not assert.
    Json hollow = Json::object();
    hollow.set("schema", Json(kLanesSchema));
    EXPECT_FALSE(checkLanesInvariants(hollow));
}

} // namespace
} // namespace tsm
