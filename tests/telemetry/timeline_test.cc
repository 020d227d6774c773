/**
 * @file
 * Timeline sampler tests: window-boundary splitting of instruction
 * occupancies, zero-length runs, the final partial window, byte
 * stability of same-seed documents, and the exactness contract — the
 * per-window accounts sum to the whole-run ProfilerSink accounts,
 * cycle for cycle and flit for flit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "common/rng.hh"
#include "net/network.hh"
#include "prof/profiler.hh"
#include "runtime/machine.hh"
#include "sim/event_queue.hh"
#include "ssn/schedule_trace.hh"
#include "telemetry/phase.hh"
#include "telemetry/timeline.hh"

namespace tsm {
namespace {

/** Trace-event duration worth exactly `cycles` core cycles. */
Tick
cyclesPs(Cycle cycles)
{
    return Tick(std::llround(double(cycles) * kCorePeriodPs));
}

TEST(Timeline, ChargeSplitsAcrossWindowBoundaries)
{
    TimelineSampler s(10);
    // A 12-cycle COMPUTE issued at cycle 5; the next issue lands at
    // cycle 25, so the occupancy [5, 17) splits 5 + 7 across windows
    // 0 and 1 and the trailing idle gap [17, 25) splits 3 + 5 across
    // windows 1 and 2.
    s.event({0, cyclesPs(12), TraceCat::Chip, TraceOp(Op::Compute), 0, 0, 5});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 0, 0, 25});
    s.finish();

    ASSERT_EQ(s.chips().size(), 1u);
    const auto &ws = s.chips().at(0);
    ASSERT_EQ(ws.size(), 3u);
    EXPECT_EQ(ws.at(0).busy[unsigned(FuncUnit::MXM)], 5u);
    EXPECT_EQ(ws.at(0).idle, 0u);
    EXPECT_EQ(ws.at(0).instrs, 1u);
    EXPECT_EQ(ws.at(1).busy[unsigned(FuncUnit::MXM)], 7u);
    EXPECT_EQ(ws.at(1).idle, 3u);
    EXPECT_EQ(ws.at(2).busy[unsigned(FuncUnit::MXM)], 0u);
    EXPECT_EQ(ws.at(2).idle, 5u);
    EXPECT_EQ(s.numWindows(), 3u);
    EXPECT_EQ(s.spanCycles(), 25u);
}

TEST(Timeline, BoundaryCycleOpensNewWindow)
{
    TimelineSampler s(10);
    // Issue exactly on the window-1 boundary: cycle 10 belongs to
    // window 1, not window 0.
    s.event({0, cyclesPs(2), TraceCat::Chip, TraceOp(Op::VAdd), 3, 0, 10});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 3, 0, 12});
    s.finish();

    const auto &ws = s.chips().at(3);
    EXPECT_EQ(ws.count(0), 0u);
    ASSERT_EQ(ws.count(1), 1u);
    EXPECT_EQ(ws.at(1).busy[unsigned(FuncUnit::VXM)], 2u);
    EXPECT_EQ(ws.at(1).instrs, 1u);
}

TEST(Timeline, ZeroLengthRun)
{
    TimelineSampler s;
    s.finish();
    EXPECT_EQ(s.numWindows(), 0u);
    EXPECT_EQ(s.spanCycles(), 0u);

    const Json doc = s.report();
    EXPECT_EQ(doc["schema"].str(), kTimelineSchema);
    EXPECT_EQ(doc["windows"].integer(), 0);
    EXPECT_EQ(doc["chips"].size(), 0u);
    EXPECT_EQ(doc["links"].size(), 0u);

    // The analyzer degrades gracefully too.
    const PhaseAnalysis analysis = analyzePhases(s);
    EXPECT_TRUE(analysis.labels.empty());
    EXPECT_TRUE(analysis.phases.empty());
}

TEST(Timeline, FinishChargesFinalPartialWindow)
{
    TimelineSampler s(10);
    // A 7-cycle instruction still pending at end of stream: finish()
    // charges its full modeled occupancy, [25, 32), exactly as the
    // profiler does — the last window is partial and stays partial.
    s.event({0, cyclesPs(7), TraceCat::Chip, TraceOp(Op::Read), 1, 0, 25});
    s.finish();

    const auto &ws = s.chips().at(1);
    ASSERT_EQ(ws.count(2), 1u);
    ASSERT_EQ(ws.count(3), 1u);
    EXPECT_EQ(ws.at(2).busy[unsigned(FuncUnit::MEM)], 5u);
    EXPECT_EQ(ws.at(3).busy[unsigned(FuncUnit::MEM)], 2u);
    EXPECT_EQ(s.spanCycles(), 32u);
    EXPECT_EQ(s.numWindows(), 4u);
}

TEST(Timeline, PollWaitChargesSxmStall)
{
    TimelineSampler s(10);
    s.event({0, cyclesPs(4), TraceCat::Chip, TraceOp::PollWait, 2, 0, 0});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 2, 0, 4});
    s.finish();

    const auto &ws = s.chips().at(2);
    ASSERT_EQ(ws.count(0), 1u);
    EXPECT_EQ(ws.at(0).stall, 4u);
    EXPECT_EQ(ws.at(0).busyTotal(), 0u);
    // poll_wait is not an instruction issue.
    EXPECT_EQ(ws.at(0).instrs, 0u);
}

TEST(Timeline, LinkWindowsCountFlitsAndQueueDepth)
{
    TimelineSampler s(100);
    const Tick ser = Tick(std::llround(kVectorSerializationPs));
    // Two transmits on link 5 land in different windows (cycle ~23 and
    // ~118 at the nominal period); both arrivals queue on link 5
    // before one Recv drains the first.
    s.event({cyclesPs(23), ser, TraceCat::Net, TraceOp::Tx, 5, 1, 0});
    s.event({cyclesPs(118), ser, TraceCat::Net, TraceOp::Tx, 5, 1, 1});
    s.event({cyclesPs(119), 0, TraceCat::Net, TraceOp::Rx, 5, 1, 0});
    s.event({cyclesPs(120), 0, TraceCat::Net, TraceOp::Rx, 5, 1, 1});
    s.event({cyclesPs(121), 0, TraceCat::Ssn, TraceOp::Recv, 0, 1, 0});
    s.finish();

    const auto &ws = s.links().at(5);
    ASSERT_EQ(ws.count(0), 1u);
    ASSERT_EQ(ws.count(1), 1u);
    EXPECT_EQ(ws.at(0).flits, 1u);
    EXPECT_EQ(ws.at(0).busyPs, ser);
    EXPECT_EQ(ws.at(1).flits, 1u);
    EXPECT_EQ(ws.at(1).queueHwm, 2u);

    // Control flits (HAC exchange, sync tokens) never queue.
    TimelineSampler c(100);
    c.event({0, 0, TraceCat::Net, TraceOp::Rx, 9,
             std::int64_t(kFlowHacExchange), 0});
    c.finish();
    EXPECT_EQ(c.links().count(9), 0u);
}

/**
 * Deepest receive queue the sampler reports when tsp0 sends `n`
 * vectors tagged `flow` to tsp1, which consumes them all after every
 * one has arrived.
 */
unsigned
queueHwmOfHandWrittenTraffic(FlowId flow, unsigned n)
{
    const Topology topo = Topology::makeNode();
    EventQueue eq;
    Network net(topo, eq, Rng(1234));
    TspChip tx(0, net, DriftClock());
    TspChip rx(1, net, DriftClock());
    const Link &link = topo.links()[topo.linksBetween(0, 1).at(0)];

    tx.setStream(0, makeVec(Vec(1.0f)));
    Program send;
    for (unsigned s = 0; s < n; ++s)
        send.emitSend(link.portAt(0), 0, flow, s);
    send.emitHalt();
    Program recv;
    recv.emitNop(1000 + n * kVectorSerializationCycles);
    for (unsigned s = 0; s < n; ++s)
        recv.emitRecv(link.portAt(1), 5, flow, s);
    recv.emitHalt();

    TimelineSampler timeline(100);
    eq.tracer().addSink(&timeline);
    tx.load(std::move(send));
    rx.load(std::move(recv));
    tx.start(0);
    rx.start(0);
    eq.run();
    timeline.finish();
    eq.tracer().removeSink(&timeline);

    EXPECT_EQ(rx.stats().flitsReceived, n);
    unsigned hwm = 0;
    for (const auto &[id, windows] : timeline.links())
        for (const auto &[w, lw] : windows)
            hwm = std::max(hwm, lw.queueHwm);
    return hwm;
}

TEST(Timeline, UntaggedTrafficNeverQueues)
{
    // Tagged vectors all wait in the receive queue until the Recvs...
    EXPECT_EQ(queueHwmOfHandWrittenTraffic(3, 50), 50u);
    // ...but untagged ones (flow 0) emit no recv to drain them, so
    // counting their arrivals would only ever grow the queue.
    EXPECT_EQ(queueHwmOfHandWrittenTraffic(0, 50), 0u);
}

TEST(Timeline, HacWindowsAggregateAdjustments)
{
    TimelineSampler s(100);
    s.event({cyclesPs(10), 0, TraceCat::Sync, TraceOp::HacAdj, 2, -5, 3});
    s.event({cyclesPs(20), 0, TraceCat::Sync, TraceOp::HacAdj, 3, 2, -1});
    s.event({cyclesPs(150), 0, TraceCat::Sync, TraceOp::HacAdj, 2, 7, 0});
    s.event({cyclesPs(30), 0, TraceCat::Sync, TraceOp::HacTx, 0, 0, 0});
    s.finish();

    ASSERT_EQ(s.hac().size(), 2u);
    const HacWindow &w0 = s.hac().at(0);
    EXPECT_EQ(w0.adjustments, 2u);
    EXPECT_EQ(w0.sumAbsDelta, 7u);
    EXPECT_EQ(w0.maxAbsDelta, 5u);
    EXPECT_EQ(w0.sumAbsStep, 4u);
    EXPECT_EQ(s.hac().at(1).adjustments, 1u);
}

TEST(Timeline, MarkersRecordRuntimeAndScheduleReplay)
{
    TimelineSampler s;
    s.event({100, 50, TraceCat::Runtime, TraceOp::Synchronize, 0, 0, 0});
    s.event({200, 900, TraceCat::Ssn, TraceOp::Flow, 1, 0, 0});
    s.event({200, 990, TraceCat::Ssn, TraceOp::Makespan, 0, 0, 0});
    s.event({300, 0, TraceCat::Ssn, TraceOp::Send, 0, 1, 0});
    s.finish();

    ASSERT_EQ(s.markers().size(), 3u);
    EXPECT_EQ(s.markers()[0].cat, TraceCat::Runtime);
    EXPECT_EQ(s.markers()[0].op, TraceOp::Synchronize);
    EXPECT_EQ(s.markers()[1].cat, TraceCat::Ssn);
    EXPECT_EQ(s.markers()[1].op, TraceOp::Flow);
    EXPECT_EQ(s.markers()[2].op, TraceOp::Makespan);
}

/**
 * The micro_harness traced scenario in-process with both the profiler
 * and the sampler attached to the same tracer.
 */
void
runScenario(ProfilerSink &prof, TimelineSampler &timeline,
            std::uint64_t seed = 1)
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

    Machine machine(compiled.value(), seed);
    Tracer &tracer = machine.eventq().tracer();
    tracer.addSink(&prof);
    tracer.addSink(&timeline);
    traceSchedule(tracer, compiled->schedule);
    machine.run();
    prof.finish();
    timeline.finish();
}

TEST(Timeline, WindowSumsMatchProfilerExactly)
{
    ProfilerSink prof;
    TimelineSampler timeline(64); // small window: force many windows
    runScenario(prof, timeline);
    ASSERT_GT(timeline.numWindows(), 1u);

    // Per chip: busy per functional unit, stall, idle and instruction
    // counts summed over windows equal the whole-run accounts exactly.
    ASSERT_EQ(timeline.chips().size(), prof.chips().size());
    for (const auto &[chip, acct] : prof.chips()) {
        ASSERT_TRUE(timeline.chips().count(chip)) << "chip " << chip;
        Cycle busy[kNumFuncUnits] = {};
        Cycle stall = 0, idle = 0;
        std::uint64_t instrs = 0;
        for (const auto &[w, cw] : timeline.chips().at(chip)) {
            for (unsigned u = 0; u < kNumFuncUnits; ++u)
                busy[u] += cw.busy[u];
            stall += cw.stall;
            idle += cw.idle;
            instrs += cw.instrs;
        }
        for (unsigned u = 0; u < kNumFuncUnits; ++u)
            EXPECT_EQ(busy[u], acct.busy[u])
                << "chip " << chip << " fu "
                << funcUnitName(FuncUnit(u));
        EXPECT_EQ(stall, acct.stall) << "chip " << chip;
        EXPECT_EQ(idle, acct.idle) << "chip " << chip;
        EXPECT_EQ(instrs, acct.instrs) << "chip " << chip;
    }

    // Per link: flit counts and serialization busy time.
    ASSERT_EQ(timeline.links().size(), prof.links().size());
    for (const auto &[link, acct] : prof.links()) {
        ASSERT_TRUE(timeline.links().count(link)) << "link " << link;
        std::uint64_t flits = 0;
        Tick busyPs = 0;
        for (const auto &[w, lw] : timeline.links().at(link)) {
            flits += lw.flits;
            busyPs += lw.busyPs;
        }
        EXPECT_EQ(flits, acct.flits) << "link " << link;
        EXPECT_EQ(busyPs, acct.busyPs) << "link " << link;
    }

    // HAC adjustment totals.
    std::uint64_t adjustments = 0, sumAbsDelta = 0;
    for (const auto &[w, hw] : timeline.hac()) {
        adjustments += hw.adjustments;
        sumAbsDelta += hw.sumAbsDelta;
    }
    EXPECT_EQ(adjustments, prof.hac().adjustments);
    EXPECT_EQ(sumAbsDelta, prof.hac().sumAbsDelta);
}

TEST(Timeline, SameSeedDocumentsAreByteIdentical)
{
    ProfilerSink pa, pb;
    TimelineSampler ta(64), tb(64);
    runScenario(pa, ta);
    runScenario(pb, tb);
    ta.setBench("determinism");
    tb.setBench("determinism");
    ta.setSeed(1);
    tb.setSeed(1);

    const PhaseAnalysis aa = analyzePhases(ta);
    const PhaseAnalysis ab = analyzePhases(tb);
    EXPECT_EQ(ta.report(&aa).dump(2), tb.report(&ab).dump(2));
}

TEST(Timeline, ReportSchemaAndRoundTrip)
{
    ProfilerSink prof;
    TimelineSampler timeline(64);
    runScenario(prof, timeline);
    timeline.setBench("schema");
    timeline.setSeed(1);

    const PhaseAnalysis analysis = analyzePhases(timeline);
    const Json doc = timeline.report(&analysis);
    EXPECT_EQ(doc["schema"].str(), kTimelineSchema);
    EXPECT_EQ(doc["bench"].str(), "schema");
    EXPECT_EQ(doc["seed"].integer(), 1);
    EXPECT_EQ(doc["window_cycles"].integer(), 64);
    EXPECT_GT(doc["windows"].integer(), 1);
    ASSERT_GT(doc["chips"].size(), 0u);
    const Json &w0 = doc["chips"].at(0)["windows"].at(0);
    for (const char *key : {"w", "busy", "stall", "idle", "instrs"})
        EXPECT_TRUE(w0.has(key)) << key;
    ASSERT_GT(doc["links"].size(), 0u);
    const Json &l0 = doc["links"].at(0)["windows"].at(0);
    for (const char *key : {"w", "flits", "busy_ps", "util", "queue_hwm",
                            "mbes"})
        EXPECT_TRUE(l0.has(key)) << key;
    ASSERT_GT(doc["labels"].size(), 0u);
    EXPECT_EQ(doc["labels"].size(), std::size_t(doc["windows"].integer()));
    ASSERT_GT(doc["phases"].size(), 0u);

    std::string error;
    const Json back = Json::parse(doc.dump(2), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.dump(2), doc.dump(2));
}

} // namespace
} // namespace tsm
