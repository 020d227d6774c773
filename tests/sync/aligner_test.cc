#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "arch/chip.hh"
#include "sync/sync_tree.hh"

namespace tsm {
namespace {

/** Two chips, drifting clocks, one link. */
class AlignFixture : public ::testing::Test
{
  protected:
    void
    buildPair(double parent_ppm, double child_ppm, Tick child_phase = 0)
    {
        topo = Topology::makeNode();
        net = std::make_unique<Network>(topo, eq, Rng(5));
        parent = std::make_unique<TspChip>(0, *net, DriftClock(parent_ppm));
        child = std::make_unique<TspChip>(
            1, *net, DriftClock(child_ppm, child_phase));
        link = topo.linksBetween(0, 1)[0];
        latency = double(linkPropagationPs(LinkClass::IntraNode)) /
                  kCorePeriodPs;
    }

    Topology topo;
    EventQueue eq;
    std::unique_ptr<Network> net;
    std::unique_ptr<TspChip> parent, child;
    LinkId link = 0;
    double latency = 0.0;
};

TEST_F(AlignFixture, CorrectsInitialMisalignment)
{
    buildPair(0.0, 0.0);
    child->adjustHac(100); // gross initial misalignment
    HacAligner aligner(*parent, *child, link, latency);
    aligner.start();
    // Paper: convergence takes roughly the period of the HAC counters;
    // run a few hundred epochs.
    eq.runUntil(Tick(500 * kHacPeriodCycles * kCorePeriodPs));
    aligner.stop();
    EXPECT_TRUE(aligner.converged());
    EXPECT_LE(std::abs(aligner.lastDelta()), 1);
}

TEST_F(AlignFixture, AdjustmentRateIsClamped)
{
    buildPair(0.0, 0.0);
    child->adjustHac(100);
    HacAlignerConfig cfg;
    cfg.maxAdjustPerUpdate = 2;
    HacAligner aligner(*parent, *child, link, latency, cfg);
    aligner.start();
    // After 3 updates at most 6 cycles can have been corrected.
    eq.runUntil(Tick(3.5 * kHacPeriodCycles * kCorePeriodPs));
    aligner.stop();
    eq.run();
    EXPECT_GE(std::abs(aligner.lastDelta()), 100 - 3 * 2 - 1);
}

TEST_F(AlignFixture, ConvergedNeedsWindowConsecutiveSmallDeltas)
{
    // A 100-cycle offset closes by at most 8 cycles per update, so the
    // deltas cross into the tolerance one update at a time. converged()
    // must wait for `window` small deltas in a row, not just the last.
    buildPair(0.0, 0.0);
    child->adjustHac(100);
    HacAligner aligner(*parent, *child, link, latency);
    aligner.start();
    unsigned small = 0; // consecutive deltas within the tolerance
    std::uint64_t seen = 0;
    const auto step = [&] {
        while (aligner.updatesApplied() == seen)
            eq.run(1);
        seen = aligner.updatesApplied();
        small = std::abs(aligner.lastDelta()) <= kHacConvergedTolCycles
                    ? small + 1
                    : 0;
    };
    bool sawPartialWindow = false;
    while (seen < 30) {
        step();
        sawPartialWindow = sawPartialWindow || (small > 0 && small < 4);
        EXPECT_EQ(aligner.converged(), small >= 4) << "update " << seen;
        EXPECT_EQ(aligner.converged(1), small >= 1) << "update " << seen;
        EXPECT_EQ(aligner.converged(8), small >= 8) << "update " << seen;
    }
    EXPECT_TRUE(sawPartialWindow);
    EXPECT_TRUE(aligner.converged(8));

    // One large delta restarts the count.
    child->adjustHac(50);
    step();
    EXPECT_EQ(small, 0u);
    EXPECT_FALSE(aligner.converged(1));
    aligner.stop();
}

TEST_F(AlignFixture, TracksContinuousDrift)
{
    // Child runs 100 ppm fast: without correction it gains a cycle
    // every ~11 us. The aligner must hold the delta near zero.
    buildPair(0.0, 100.0);
    HacAligner aligner(*parent, *child, link, latency);
    aligner.start();
    eq.runUntil(10 * kPsPerMs); // 10 ms >> drift time constant
    aligner.stop();
    EXPECT_LE(std::abs(aligner.lastDelta()), 2);
    EXPECT_GT(aligner.updatesApplied(), 30000u);
}

TEST_F(AlignFixture, PhaseOffsetToleratedToo)
{
    buildPair(0.0, -50.0, /*child_phase=*/123456);
    HacAligner aligner(*parent, *child, link, latency);
    aligner.start();
    eq.runUntil(5 * kPsPerMs);
    aligner.stop();
    EXPECT_LE(std::abs(aligner.lastDelta()), 2);
}

TEST(SyncTreeTest, BfsTreeSpansNode)
{
    const Topology topo = Topology::makeNode();
    const SyncTree tree = SyncTree::build(topo, 0);
    EXPECT_EQ(tree.edges().size(), 7u); // spanning tree of 8 vertices
    EXPECT_EQ(tree.height(), 1u);       // full mesh: all depth 1
    EXPECT_EQ(tree.depthOf(0), 0u);
    for (TspId t = 1; t < 8; ++t)
        EXPECT_EQ(tree.depthOf(t), 1u);
    EXPECT_EQ(tree.parentEdge(0), nullptr);
    EXPECT_EQ(tree.childEdges(0).size(), 7u);
}

TEST(SyncTreeTest, MultiHopTreeOnDragonfly)
{
    const Topology topo = Topology::makeSingleLevel(4);
    const SyncTree tree = SyncTree::build(topo, 0);
    EXPECT_EQ(tree.edges().size(), topo.numTsps() - 1);
    EXPECT_GE(tree.height(), 2u);
    // Every non-root has exactly one parent edge.
    for (TspId t = 1; t < topo.numTsps(); ++t)
        EXPECT_NE(tree.parentEdge(t), nullptr);
}

TEST(SystemSyncTest, WholeNodeConvergesFromRandomOffsets)
{
    EventQueue eq;
    Topology topo = Topology::makeNode();
    Network net(topo, eq, Rng(11));
    Rng rng(99);
    std::vector<std::unique_ptr<TspChip>> chips;
    std::vector<TspChip *> raw;
    for (TspId t = 0; t < topo.numTsps(); ++t) {
        const double ppm = t == 0 ? 0.0 : rng.uniform(-50.0, 50.0);
        const Tick phase = t == 0 ? 0 : Tick(rng.below(100000));
        chips.push_back(
            std::make_unique<TspChip>(t, net, DriftClock(ppm, phase)));
        chips.back()->adjustHac(int(rng.range(-100, 100)));
        raw.push_back(chips.back().get());
    }

    const SyncTree tree = SyncTree::build(topo, 0);
    SystemSynchronizer sync(raw, tree);

    const Tick before_skew = sync.epochSkewPs(0);
    sync.start();
    eq.runUntil(5 * kPsPerMs);
    sync.stop();

    EXPECT_TRUE(sync.allConverged());
    EXPECT_LE(sync.worstDelta(), 2);
    // Post-alignment epoch skew is within a few cycles; it started
    // off grossly misaligned.
    const Tick after_skew = sync.epochSkewPs(eq.now());
    EXPECT_LT(after_skew, Tick(4 * kCorePeriodPs));
    EXPECT_LT(after_skew, before_skew);
}

TEST(SystemSyncTest, MultiHopChainAccumulatesBoundedSkew)
{
    // A 2-node dragonfly: depth-2 tree; skew must stay bounded even
    // through the intermediate hop.
    EventQueue eq;
    Topology topo = Topology::makeSingleLevel(2);
    Network net(topo, eq, Rng(13));
    Rng rng(7);
    std::vector<std::unique_ptr<TspChip>> chips;
    std::vector<TspChip *> raw;
    for (TspId t = 0; t < topo.numTsps(); ++t) {
        const double ppm = t == 0 ? 0.0 : rng.uniform(-50.0, 50.0);
        chips.push_back(std::make_unique<TspChip>(t, net, DriftClock(ppm)));
        raw.push_back(chips.back().get());
    }
    const SyncTree tree = SyncTree::build(topo, 0);
    SystemSynchronizer sync(raw, tree);
    sync.start();
    eq.runUntil(5 * kPsPerMs);
    sync.stop();
    EXPECT_TRUE(sync.allConverged());
    EXPECT_LT(sync.epochSkewPs(eq.now()), Tick(6 * kCorePeriodPs));
}

} // namespace
} // namespace tsm
