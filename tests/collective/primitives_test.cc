#include <gtest/gtest.h>

#include "collective/primitives.hh"
#include "runtime/global_memory.hh"

namespace tsm {
namespace {

TEST(Primitives, BroadcastPatternShape)
{
    const Topology topo = Topology::makeNode();
    const auto transfers = broadcastTransfers(topo, 3, 10, 5, 100);
    EXPECT_EQ(transfers.size(), 7u);
    FlowId expect = 5;
    for (const auto &t : transfers) {
        EXPECT_EQ(t.src, 3u);
        EXPECT_NE(t.dst, 3u);
        EXPECT_EQ(t.vectors, 10u);
        EXPECT_EQ(t.earliest, 100u);
        EXPECT_EQ(t.flow, expect++);
    }
}

TEST(Primitives, GatherPatternShape)
{
    const Topology topo = Topology::makeNode();
    const auto transfers = gatherTransfers(topo, 0, 4);
    EXPECT_EQ(transfers.size(), 7u);
    for (const auto &t : transfers)
        EXPECT_EQ(t.dst, 0u);
}

TEST(Primitives, BroadcastFasterThanGatherAtRootBottleneck)
{
    // Broadcast spreads the root's output over its 7 links; gather
    // funnels 7 flows into the root's 7 receive links — symmetric in
    // this node, so both complete in similar time.
    const Topology topo = Topology::makeNode();
    const Cycle b =
        collectiveCompletion(topo, broadcastTransfers(topo, 0, 64));
    const Cycle g =
        collectiveCompletion(topo, gatherTransfers(topo, 0, 64));
    EXPECT_NEAR(double(b), double(g), 0.3 * double(b));
}

TEST(Primitives, CompletionScalesWithTensorSize)
{
    const Topology topo = Topology::makeNode();
    const Cycle small =
        collectiveCompletion(topo, broadcastTransfers(topo, 0, 8));
    const Cycle large =
        collectiveCompletion(topo, broadcastTransfers(topo, 0, 512));
    EXPECT_GT(large, small * 4);
}

/**
 * The strongest collective test: a *numeric* 8-way all-reduce run on
 * the actual chips — every device contributes a distinct vector, the
 * scheduled pushes move data, and VXM adds performed by appended
 * chip instructions produce the correct global sum everywhere.
 */
TEST(NumericAllReduce, ChipsComputeCorrectGlobalSum)
{
    Machine machine(SystemConfig{}); // one node of 8 TSPs
    GlobalMemory gm(machine);

    // Each device's contribution lives at word 0: Vec(i + 1).
    for (TspId d = 0; d < 8; ++d) {
        GlobalAddr a;
        a.device = d;
        a.local = LocalAddr::unflatten(0);
        gm.write(a, makeVec(Vec(float(d + 1))));
    }

    // All-to-all pushes: device i's contribution lands at word
    // 100 + i on every peer.
    std::vector<PushRequest> pushes;
    for (TspId i = 0; i < 8; ++i) {
        for (TspId j = 0; j < 8; ++j) {
            if (i == j)
                continue;
            PushRequest p;
            p.src.device = i;
            p.src.local = LocalAddr::unflatten(0);
            p.dstDevice = j;
            p.dstAddr = LocalAddr::unflatten(100 + i);
            p.vectors = 1;
            pushes.push_back(p);
        }
    }
    auto compiled = gm.compile(pushes);
    ASSERT_TRUE(validateSchedule(compiled.schedule, machine.topo()).ok);

    // Append the reduction to each chip's program: accumulate own
    // contribution plus the 7 received ones into word 200. Appended
    // instructions are unscheduled, so they run after the last
    // scheduled receive... but only per-chip; gate them on the global
    // completion cycle via an explicit issueAt on the first one.
    for (TspId d = 0; d < 8; ++d) {
        Program &p = compiled.programs.byChip[d];
        auto &own = p.emitRead(LocalAddr::unflatten(0), 1);
        own.issueAt = compiled.completion + 64;
        p.emit(Op::VCopy).dst = 2;
        p.instrs.back().srcA = 1;
        for (TspId i = 0; i < 8; ++i) {
            if (i == d)
                continue;
            p.emitRead(LocalAddr::unflatten(100 + i), 3);
            auto &add = p.emit(Op::VAdd);
            add.dst = 2;
            add.srcA = 2;
            add.srcB = 3;
        }
        p.emitWrite(2, LocalAddr::unflatten(200));
    }
    machine.launch(std::move(compiled.programs.byChip), 0);
    machine.eventq().run();

    // Sum of 1..8 = 36 in every lane on every chip.
    for (TspId d = 0; d < 8; ++d) {
        const VecPtr result =
            machine.chip(d).mem().read(LocalAddr::unflatten(200));
        ASSERT_TRUE(result) << "chip " << d;
        EXPECT_EQ((*result)[0], 36.0f) << "chip " << d;
        EXPECT_EQ((*result)[319], 36.0f) << "chip " << d;
    }
}

} // namespace
} // namespace tsm
