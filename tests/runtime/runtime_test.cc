#include <gtest/gtest.h>

#include "runtime/runtime.hh"
#include "runtime/machine.hh"

namespace tsm {
namespace {

/** Simple work: every active TSP sends a few vectors to a peer. */
std::vector<TensorTransfer>
ringWork(const Topology &, const std::vector<TspId> &active)
{
    std::vector<TensorTransfer> out;
    for (std::size_t i = 0; i < active.size(); ++i) {
        TensorTransfer t;
        t.flow = FlowId(i + 1);
        t.src = active[i];
        t.dst = active[(i + 1) % active.size()];
        t.vectors = 8;
        out.push_back(t);
    }
    return out;
}

TEST(MachineBringup, BuildsBySize)
{
    SystemConfig cfg;
    cfg.numTsps = 16;
    Machine sys(cfg);
    EXPECT_EQ(sys.numTsps(), 16u);
    EXPECT_TRUE(sys.topo().connected());
}

TEST(MachineBringup, SynchronizeAlignsDriftingChips)
{
    SystemConfig cfg;
    cfg.numTsps = 8;
    cfg.driftPpmSigma = 30.0;
    Machine sys(cfg);
    const int residual = sys.synchronize();
    EXPECT_LE(residual, 2);
}

TEST(MachineBringup, AlignedLaunchRunsToCompletion)
{
    SystemConfig cfg;
    cfg.numTsps = 8;
    Machine sys(cfg);
    std::vector<Program> payloads(8);
    for (auto &p : payloads)
        p.emitCompute(1000);
    sys.launchAligned(std::move(payloads));
    EXPECT_TRUE(sys.runToCompletion());
    // All chips halted at the same cycle (synchronized launch).
    const Cycle h0 =
        sys.chip(0).clock().tickToCycle(sys.chip(0).stats().haltTick);
    for (TspId t = 1; t < 8; ++t)
        EXPECT_EQ(sys.chip(t).clock().tickToCycle(
                      sys.chip(t).stats().haltTick),
                  h0);
}

TEST(MachineBringup, CleanRunHasNoCriticalErrors)
{
    SystemConfig cfg;
    cfg.numTsps = 8;
    Machine sys(cfg);
    std::vector<Program> payloads(8);
    sys.launch(std::move(payloads), 0);
    EXPECT_TRUE(sys.runToCompletion());
    EXPECT_EQ(sys.criticalErrors(), 0u);
}

TEST(Runtime, HoldsBackTheSpare)
{
    Runtime rt(4);
    // 4 physical nodes, one spare: 3 x 8 = 24 logical TSPs.
    EXPECT_EQ(rt.logicalTsps(), 24u);
    EXPECT_EQ(rt.activeNodes().size(), 3u);
    EXPECT_FALSE(rt.spareUsed());
}

TEST(Runtime, CleanInferenceSucceedsFirstTry)
{
    Runtime rt(4);
    const auto report = rt.runInference(ringWork);
    EXPECT_TRUE(report.success);
    EXPECT_EQ(report.attempts, 1u);
    EXPECT_EQ(report.mbesObserved, 0u);
    EXPECT_FALSE(report.spareSwapped);
}

TEST(Runtime, TransientFaultClearsOnReplay)
{
    Runtime rt(4, /*seed=*/42);
    FaultScenario fault;
    fault.faultyNode = 1;
    fault.mbeRate = 1.0; // every vector through node 1 corrupts
    fault.persistent = false;
    const auto report = rt.runInference(ringWork, fault);
    EXPECT_TRUE(report.success);
    EXPECT_EQ(report.attempts, 2u); // one replay
    EXPECT_GT(report.mbesObserved, 0u);
    EXPECT_FALSE(report.spareSwapped); // no hardware action needed
}

TEST(Runtime, PersistentFaultSwapsSpareAndRecovers)
{
    Runtime rt(4, /*seed=*/43);
    FaultScenario fault;
    fault.faultyNode = 1;
    fault.mbeRate = 1.0;
    fault.persistent = true;
    const auto report = rt.runInference(ringWork, fault, 4);
    EXPECT_TRUE(report.success);
    EXPECT_TRUE(report.spareSwapped);
    EXPECT_EQ(report.failedNode, 1u);
    EXPECT_TRUE(rt.spareUsed());
    // Capacity is preserved: still 3 worker nodes.
    EXPECT_EQ(rt.logicalTsps(), 24u);
    // The failed node is no longer in service.
    for (unsigned n : rt.activeNodes())
        EXPECT_NE(n, 1u);
}

TEST(Runtime, SystemRemainsConnectedAfterFailover)
{
    // Paper §4.5: the Dragonfly is edge- and node-symmetric, so the
    // network stays fully connected after removing a node.
    Runtime rt(4, 44);
    FaultScenario fault;
    fault.faultyNode = 2;
    fault.mbeRate = 1.0;
    fault.persistent = true;
    const auto report = rt.runInference(ringWork, fault, 4);
    EXPECT_TRUE(report.success);
    // A follow-up inference on the repaired system is clean.
    const auto again = rt.runInference(ringWork);
    EXPECT_TRUE(again.success);
    EXPECT_EQ(again.attempts, 1u);
}

/** The diagnosis of `ringWork` plus one transfer `src` -> `dst`. */
std::string
diagnosis(Runtime &rt, TspId src, TspId dst)
{
    const auto report = rt.runInference(
        [&](const Topology &topo, const std::vector<TspId> &active) {
            auto out = ringWork(topo, active);
            out.push_back(out.front());
            out.back().flow = FlowId(out.size());
            out.back().src = src;
            out.back().dst = dst;
            return out;
        });
    EXPECT_FALSE(report.success);
    EXPECT_EQ(report.attempts, 1u);
    return report.error;
}

TEST(Runtime, TransferToSelfIsADiagnosis)
{
    Runtime rt(4);
    EXPECT_NE(diagnosis(rt, 3, 3).find("from chip 3 to chip 3"),
              std::string::npos);
}

TEST(Runtime, EndpointOutsideTheTopologyIsADiagnosis)
{
    Runtime rt(4);
    EXPECT_NE(diagnosis(rt, 0, 32).find("32-TSP topology"),
              std::string::npos);
}

TEST(Runtime, EndpointOutOfServiceIsADiagnosis)
{
    // Node 1 fails and is swapped out; work still aimed at its TSPs
    // has no path.
    Runtime rt(4, 43);
    FaultScenario fault;
    fault.faultyNode = 1;
    fault.mbeRate = 1.0;
    fault.persistent = true;
    ASSERT_TRUE(rt.runInference(ringWork, fault, 4).spareSwapped);
    EXPECT_NE(diagnosis(rt, 0, 8).find("chip 8, with no link in service"),
              std::string::npos);
    EXPECT_TRUE(rt.runInference(ringWork).error.empty());
}

} // namespace
} // namespace tsm
