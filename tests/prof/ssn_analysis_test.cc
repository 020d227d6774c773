/**
 * @file
 * SSN schedule analyzer tests: critical-path length equals the
 * schedule makespan, the makespan decomposition is exact, and — the
 * paper's determinism claim made executable — on a contention-free
 * schedule the static prediction matches the simulated completion
 * cycle exactly (gap == 0).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "prof/report.hh"
#include "prof/ssn_analysis.hh"
#include "prof/whatif.hh"
#include "runtime/machine.hh"

namespace tsm {
namespace {

TensorTransfer
makeTransfer(FlowId flow, TspId src, TspId dst, std::uint32_t vectors,
             Cycle earliest = 0)
{
    TensorTransfer t;
    t.flow = flow;
    t.src = src;
    t.dst = dst;
    t.vectors = vectors;
    t.earliest = earliest;
    return t;
}

void
expectDecompositionExact(const SsnAnalysis &a)
{
    EXPECT_EQ(a.startCycle + a.flightCyclesTotal + a.forwardCyclesTotal +
                  a.waitCyclesTotal,
              a.makespan);
}

TEST(SsnAnalysis, SingleVectorSingleHop)
{
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = std::vector{makeTransfer(1, 0, 1, 1)};
    const auto sched = scheduler.schedule(transfers);
    const SsnAnalysis a = analyzeSchedule(sched, topo);

    EXPECT_EQ(a.makespan, sched.makespan);
    EXPECT_EQ(a.criticalPathCycles, a.makespan);
    EXPECT_EQ(a.hopsTotal, 1u);
    EXPECT_EQ(a.contendedHops, 0u);
    EXPECT_TRUE(a.contentionFree);
    ASSERT_EQ(a.criticalPath.size(), 1u);
    EXPECT_EQ(a.criticalPath[0].edge, CritEdge::Start);
    EXPECT_EQ(a.criticalPath[0].wait, 0u);
    EXPECT_EQ(a.criticalPath[0].arrive, a.makespan);
    EXPECT_EQ(a.startCycle, 0u);
    EXPECT_EQ(a.flightCyclesTotal, flightCycles(LinkClass::IntraNode));
    EXPECT_EQ(a.forwardCyclesTotal, 0u);
    EXPECT_EQ(a.waitCyclesTotal, 0u);
    expectDecompositionExact(a);
    EXPECT_EQ(a.predictedCompletionCycles, a.makespan + kRxMarginCycles);
    EXPECT_EQ(a.hopSlack.count(), a.hopsTotal);
}

TEST(SsnAnalysis, EarliestInjectionSetsStartCycle)
{
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = std::vector{makeTransfer(1, 2, 5, 1, 100)};
    const auto sched = scheduler.schedule(transfers);
    const SsnAnalysis a = analyzeSchedule(sched, topo);

    EXPECT_TRUE(a.contentionFree);
    EXPECT_EQ(a.startCycle, 100u);
    EXPECT_EQ(a.makespan, 100 + flightCycles(LinkClass::IntraNode));
    expectDecompositionExact(a);
}

TEST(SsnAnalysis, ContendedFanInStaysExact)
{
    // Four flows, 32 vectors each, all into TSP 0 — heavy contention
    // on the destination's links and issue slots.
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    std::vector<TensorTransfer> transfers;
    for (unsigned f = 0; f < 4; ++f)
        transfers.push_back(makeTransfer(f + 1, TspId(f + 1), 0, 32));
    const auto sched = scheduler.schedule(transfers);
    const SsnAnalysis a = analyzeSchedule(sched, topo);

    EXPECT_EQ(a.criticalPathCycles, a.makespan);
    EXPECT_FALSE(a.contentionFree);
    EXPECT_GT(a.contendedHops, 0u);
    EXPECT_GE(a.hopsTotal, 128u);
    EXPECT_EQ(a.hopSlack.count(), a.hopsTotal);
    ASSERT_FALSE(a.criticalPath.empty());
    EXPECT_EQ(a.criticalPath.back().arrive, a.makespan);
    expectDecompositionExact(a);

    // The path is chronological, and every waiting hop is explained
    // by a contention edge.
    for (std::size_t i = 0; i < a.criticalPath.size(); ++i) {
        const CritHop &h = a.criticalPath[i];
        if (i > 0) {
            EXPECT_GT(h.depart, a.criticalPath[i - 1].depart);
        }
        if (h.wait > 0) {
            EXPECT_EQ(h.edge, CritEdge::Contention);
        }
    }
}

/**
 * The satellite the issue names: on a contention-free schedule run on
 * drift-free chips, the statically predicted completion cycle equals
 * the simulated one — gap == 0, no measurement required.
 */
TEST(SsnAnalysis, PredictionMatchesSimulationOnContentionFreeRun)
{
    const std::vector<TensorTransfer> transfers = {
        makeTransfer(1, 0, 1, 1), makeTransfer(2, 2, 3, 1)};
    const auto compiled = compileTransfers(Topology::makeNode(), transfers);
    const Topology &topo = compiled.value().topo;
    const NetworkSchedule &sched = compiled->schedule;

    ProfileCollector prof;
    prof.setBench("ssn_analysis_test");
    prof.setSeed(1);
    prof.setSchedule(sched, topo);
    ASSERT_TRUE(prof.analysis().has_value());
    EXPECT_TRUE(prof.analysis()->contentionFree);

    Machine machine(*compiled, 1);
    machine.eventq().tracer().addSink(&prof.sink());
    machine.run();
    prof.sink().finish();

    ASSERT_GT(prof.sink().recvEvents(), 0u);
    const Cycle simulated = Cycle(std::llround(
        double(prof.sink().lastRecvTick()) / kCorePeriodPs));
    EXPECT_EQ(simulated, prof.analysis()->predictedCompletionCycles);

    const Json report = prof.report();
    EXPECT_TRUE(report["ssn"]["simulated"].boolean());
    EXPECT_EQ(report["ssn"]["gap_cycles"].integer(), 0);
    EXPECT_TRUE(report["ssn"]["contention_free"].boolean());
}

TEST(SsnAnalysis, CriticalPathHopsHaveZeroBindingSlack)
{
    // Every critical-path hop must depart exactly at its binding
    // constraint: a hop labeled start/pipeline departs the cycle it
    // became feasible (wait == 0), and a contention hop's wait is
    // fully explained by the constraint graph — verified by the
    // what-if engine's identity recomputation reproducing every
    // departure cycle with zero residual slack.
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    std::vector<TensorTransfer> transfers;
    transfers.push_back(makeTransfer(1, 1, 0, 24));
    transfers.push_back(makeTransfer(2, 2, 0, 16));
    transfers.push_back(makeTransfer(3, 3, 0, 8, 50));
    const auto sched = scheduler.schedule(transfers);
    const SsnAnalysis a = analyzeSchedule(sched, topo);

    ASSERT_FALSE(a.criticalPath.empty());
    EXPECT_GT(a.contendedHops, 0u);
    for (const CritHop &ch : a.criticalPath) {
        if (ch.edge == CritEdge::Contention) {
            EXPECT_GT(ch.wait, 0u);
        } else {
            EXPECT_EQ(ch.wait, 0u)
                << critEdgeName(ch.edge) << " hop on link " << ch.link
                << " departed " << ch.wait
                << " cycles after it became feasible";
        }
        EXPECT_GE(ch.arrive, ch.depart);
    }
    expectDecompositionExact(a);

    // Zero residual slack anywhere: the constraint graph alone
    // explains every departure cycle, so no critical-path hop (and
    // no other hop) idles past its binding constraint.
    const WhatIfEngine engine(sched, topo);
    std::string why;
    EXPECT_TRUE(engine.identityExact(&why)) << why;
}

} // namespace
} // namespace tsm
