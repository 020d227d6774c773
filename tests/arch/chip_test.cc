#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "arch/chip.hh"
#include "common/rng.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "sim/event_queue.hh"

namespace tsm {
namespace {

/** An 8-TSP node with chips attached, ready to run programs. */
class NodeFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        topo = Topology::makeNode();
        net = std::make_unique<Network>(topo, eq, Rng(1234));
        for (TspId t = 0; t < topo.numTsps(); ++t)
            chips.push_back(std::make_unique<TspChip>(t, *net, DriftClock()));
    }

    /** Port on `src` that reaches adjacent `dst`. */
    unsigned
    portTo(TspId src, TspId dst)
    {
        const auto ls = topo.linksBetween(src, dst);
        EXPECT_FALSE(ls.empty());
        return topo.links()[ls[0]].portAt(src);
    }

    Topology topo;
    EventQueue eq;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<TspChip>> chips;
};

TEST_F(NodeFixture, HaltStopsProgram)
{
    Program p;
    p.emitNop(5);
    p.emitHalt();
    chips[0]->load(std::move(p));
    chips[0]->start(0);
    eq.run();
    EXPECT_TRUE(chips[0]->halted());
    EXPECT_EQ(chips[0]->stats().instrsExecuted, 2u);
}

TEST_F(NodeFixture, ComputeConsumesExactCycles)
{
    Program p;
    p.emitCompute(100);
    p.emitHalt();
    chips[0]->load(std::move(p));
    chips[0]->start(0);
    eq.run();
    // Halt executes at cycle 100 exactly.
    EXPECT_EQ(chips[0]->stats().haltTick,
              chips[0]->clock().cycleToTick(100));
    EXPECT_EQ(chips[0]->stats().computeCycles, 100u);
}

TEST_F(NodeFixture, MemoryReadWriteThroughStreams)
{
    const LocalAddr src = LocalAddr::unflatten(10);
    const LocalAddr dst = LocalAddr::unflatten(20);
    chips[0]->mem().write(src, makeVec(Vec(3.0f)));

    Program p;
    p.emitRead(src, 0);
    p.emitWrite(0, dst);
    p.emitHalt();
    chips[0]->load(std::move(p));
    chips[0]->start(0);
    eq.run();
    EXPECT_EQ((*chips[0]->mem().read(dst))[0], 3.0f);
}

TEST_F(NodeFixture, VectorAluOps)
{
    chips[0]->setStream(1, makeVec(Vec(6.0f)));
    chips[0]->setStream(2, makeVec(Vec(2.0f)));

    Program p;
    auto &add = p.emit(Op::VAdd);
    add.dst = 3; add.srcA = 1; add.srcB = 2;
    auto &mul = p.emit(Op::VMul);
    mul.dst = 4; mul.srcA = 1; mul.srcB = 2;
    auto &sc = p.emit(Op::VScale);
    sc.dst = 5; sc.srcA = 1; sc.fimm = 0.5f;
    auto &rs = p.emit(Op::VRsqrt);
    rs.dst = 6; rs.srcA = 2;
    p.emitHalt();

    chips[0]->load(std::move(p));
    chips[0]->start(0);
    eq.run();
    EXPECT_EQ((*chips[0]->stream(3))[0], 8.0f);
    EXPECT_EQ((*chips[0]->stream(4))[0], 12.0f);
    EXPECT_EQ((*chips[0]->stream(5))[0], 3.0f);
    EXPECT_NEAR((*chips[0]->stream(6))[0], 0.7071f, 1e-4f);
}

TEST_F(NodeFixture, MxmComputesSubOperation)
{
    // [1 x 2] x [2 x 320]: act = [2, 3], W row0 = all 10, row1 = all 100.
    chips[0]->setStream(0, makeVec(Vec(10.0f)));
    chips[0]->setStream(1, makeVec(Vec(100.0f)));
    Vec act;
    act[0] = 2.0f;
    act[1] = 3.0f;
    chips[0]->setStream(2, makeVec(act));

    Program p;
    auto &w0 = p.emit(Op::MxmLoadWeights);
    w0.srcA = 0; w0.imm = 0;
    auto &w1 = p.emit(Op::MxmLoadWeights);
    w1.srcA = 1; w1.imm = 1;
    auto &mm = p.emit(Op::MxmMatMul);
    mm.srcA = 2; mm.dst = 3;
    p.emitHalt();

    chips[0]->load(std::move(p));
    chips[0]->start(0);
    eq.run();
    // out = 2*10 + 3*100 = 320 in every lane.
    EXPECT_EQ((*chips[0]->stream(3))[0], 320.0f);
    EXPECT_EQ((*chips[0]->stream(3))[319], 320.0f);
}

TEST_F(NodeFixture, SendRecvAcrossOneLink)
{
    const unsigned p01 = portTo(0, 1);
    const unsigned p10 = portTo(1, 0);

    chips[0]->setStream(0, makeVec(Vec(42.0f)));
    Program tx;
    tx.emitSend(p01, 0, /*flow=*/7, /*seq=*/0);
    tx.emitHalt();

    Program rx;
    // Receive is scheduled comfortably after the arrival (hop ~520ns
    // = ~468 cycles).
    rx.emitRecv(p10, 5, 7, 0).issueAt = 600;
    rx.emitHalt();

    chips[0]->load(std::move(tx));
    chips[1]->load(std::move(rx));
    chips[0]->start(0);
    chips[1]->start(0);
    eq.run();

    ASSERT_TRUE(chips[1]->stream(5));
    EXPECT_EQ((*chips[1]->stream(5))[0], 42.0f);
    EXPECT_EQ(chips[0]->stats().flitsSent, 1u);
    EXPECT_EQ(chips[1]->stats().flitsReceived, 1u);
}

TEST_F(NodeFixture, RecvUnderflowPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Program rx;
    rx.emitRecv(portTo(1, 0), 5, 7, 0);
    rx.emitHalt();
    chips[1]->load(std::move(rx));
    chips[1]->start(0);
    EXPECT_DEATH(eq.run(), "underflow");
}

TEST_F(NodeFixture, ReceiveFifoIndexIsChecked)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EQ(chips[2]->rxDepth(kPortsPerTsp - 1), 0u);
    EXPECT_DEATH(chips[2]->rxDepth(kPortsPerTsp), "tsp2: .*port 11");
    Program rx;
    rx.emitRecv(kPortsPerTsp, 5, 7, 0);
    EXPECT_DEATH(chips[2]->load(std::move(rx)), "tsp2: .*port 11");
}

TEST_F(NodeFixture, RecvTagMismatchPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const unsigned p01 = portTo(0, 1);
    const unsigned p10 = portTo(1, 0);
    chips[0]->setStream(0, makeVec(Vec(1.0f)));
    Program tx;
    tx.emitSend(p01, 0, 7, 0);
    tx.emitHalt();
    Program rx;
    rx.emitRecv(p10, 5, /*wrong flow=*/8, 0).issueAt = 600;
    rx.emitHalt();
    chips[0]->load(std::move(tx));
    chips[1]->load(std::move(rx));
    chips[0]->start(0);
    chips[1]->start(0);
    EXPECT_DEATH(eq.run(), "mismatch");
}

TEST_F(NodeFixture, UnscheduledSendsSelfPaceAtSerializationRate)
{
    const unsigned p01 = portTo(0, 1);
    chips[0]->setStream(0, makeVec(Vec(1.0f)));
    Program tx;
    for (unsigned s = 0; s < 10; ++s)
        tx.emitSend(p01, 0, 7, s);
    tx.emitHalt();
    chips[0]->load(std::move(tx));
    chips[0]->start(0);
    eq.run(); // must not panic: sends are spaced by >= 24 cycles
    EXPECT_EQ(chips[0]->stats().flitsSent, 10u);
}

TEST_F(NodeFixture, ScheduledOverlappingSendsPanic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const unsigned p01 = portTo(0, 1);
    chips[0]->setStream(0, makeVec(Vec(1.0f)));
    Program tx;
    tx.emitSend(p01, 0, 7, 0).issueAt = 100;
    tx.emitSend(p01, 0, 7, 1).issueAt = 101; // overlaps serialization
    tx.emitHalt();
    chips[0]->load(std::move(tx));
    chips[0]->start(0);
    EXPECT_DEATH(eq.run(), "conflict");
}

TEST_F(NodeFixture, HacSacCountersTrackCycles)
{
    // With no adjustment both counters read the epoch phase.
    EXPECT_EQ(chips[0]->hac(), 0u);
    EXPECT_EQ(chips[0]->sac(), 0u);
    eq.runUntil(chips[0]->clock().cycleToTick(300));
    EXPECT_EQ(chips[0]->hac(), 300u % kHacPeriodCycles);
    EXPECT_EQ(chips[0]->hac(), chips[0]->sac());
}

TEST_F(NodeFixture, HacAdjustmentCreatesSacDelta)
{
    chips[0]->adjustHac(-5);
    EXPECT_EQ(chips[0]->sacHacDelta(), 5); // SAC ahead: local ran fast
    chips[0]->realignSac();
    EXPECT_EQ(chips[0]->sacHacDelta(), 0);
}

TEST_F(NodeFixture, DeskewAlignsToEpochBoundary)
{
    Program p;
    p.emitCompute(100); // end mid-epoch
    p.emit(Op::Deskew);
    p.emitHalt();
    chips[0]->load(std::move(p));
    chips[0]->start(0);
    eq.run();
    // Halt must issue at an epoch boundary: cycle 252.
    EXPECT_EQ(chips[0]->clock().tickToCycle(chips[0]->stats().haltTick),
              Cycle(kHacPeriodCycles));
}

TEST_F(NodeFixture, RuntimeDeskewCompensatesDrift)
{
    // Simulate a chip whose HAC was nudged back 10 cycles by its
    // parent (local clock fast by 10): RUNTIME_DESKEW t=50 must stall
    // 50 + 10 = 60 cycles and realign SAC.
    chips[0]->adjustHac(-10);
    Program p;
    auto &rd = p.emit(Op::RuntimeDeskew);
    rd.imm = 50;
    p.emitHalt();
    chips[0]->load(std::move(p));
    chips[0]->start(0);
    eq.run();
    EXPECT_EQ(chips[0]->clock().tickToCycle(chips[0]->stats().haltTick),
              60u);
    EXPECT_EQ(chips[0]->sacHacDelta(), 0);
}

TEST_F(NodeFixture, PollRecvWaitsAcrossEpochs)
{
    const unsigned p01 = portTo(0, 1);
    const unsigned p10 = portTo(1, 0);

    // Child polls; parent transmits after ~4 epochs.
    Program child;
    auto &poll = child.emit(Op::PollRecv);
    poll.port = std::uint8_t(p10);
    poll.dst = 2;
    child.emitHalt();

    Program parent;
    parent.emitNop(4 * kHacPeriodCycles);
    parent.emitSend(p01, 0, 9, 0);
    parent.emitHalt();

    chips[0]->setStream(0, makeVec(Vec(5.0f)));
    chips[0]->load(std::move(parent));
    chips[1]->load(std::move(child));
    chips[0]->start(0);
    chips[1]->start(0);
    eq.run();
    ASSERT_TRUE(chips[1]->halted());
    ASSERT_TRUE(chips[1]->stream(2));
    EXPECT_EQ((*chips[1]->stream(2))[0], 5.0f);
}

TEST_F(NodeFixture, LateScheduledInstructionPanicsWhenStrict)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Program p;
    p.emitCompute(200);
    p.emitCompute(10).issueAt = 100; // unreachable on time
    p.emitHalt();
    chips[0]->load(std::move(p));
    chips[0]->start(0);
    EXPECT_DEATH(eq.run(), "schedule");
}

TEST_F(NodeFixture, DeterministicReplayIsByteIdentical)
{
    // Run the same program twice on fresh fixtures and compare halt
    // ticks — the reproducibility invariant.
    auto run_once = [&]() {
        EventQueue eq2;
        Topology topo2 = Topology::makeNode();
        Network net2(topo2, eq2, Rng(1234));
        TspChip c0(0, net2, DriftClock());
        TspChip c1(1, net2, DriftClock());
        const unsigned port =
            topo2.links()[topo2.linksBetween(0, 1)[0]].portAt(0);
        const unsigned rport =
            topo2.links()[topo2.linksBetween(0, 1)[0]].portAt(1);
        c0.setStream(0, makeVec(Vec(1.0f)));
        Program tx;
        for (unsigned s = 0; s < 50; ++s)
            tx.emitSend(port, 0, 3, s);
        tx.emitHalt();
        Program rx;
        for (unsigned s = 0; s < 50; ++s) {
            auto &r = rx.emitRecv(rport, 1, 3, s);
            r.issueAt = 600 + s * kVectorSerializationCycles;
        }
        rx.emitHalt();
        c0.load(std::move(tx));
        c1.load(std::move(rx));
        c0.start(0);
        c1.start(0);
        eq2.run();
        return std::pair(c0.stats().haltTick, c1.stats().haltTick);
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace tsm
