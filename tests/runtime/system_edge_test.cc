#include <gtest/gtest.h>

#include "runtime/runtime.hh"
#include "runtime/machine.hh"
#include "sync/program_alignment.hh"

namespace tsm {
namespace {

std::vector<TensorTransfer>
pairWork(const Topology &, const std::vector<TspId> &active)
{
    // A ring over all active TSPs: every node's links carry traffic,
    // so a faulty node is always exercised.
    std::vector<TensorTransfer> out;
    for (std::size_t i = 0; i < active.size(); ++i) {
        TensorTransfer t;
        t.flow = FlowId(i + 1);
        t.src = active[i];
        t.dst = active[(i + 1) % active.size()];
        t.vectors = 4;
        out.push_back(t);
    }
    return out;
}

TEST(RuntimeEdge, ExhaustedAttemptsReportFailure)
{
    // A persistent fault with the spare already consumed: the runtime
    // runs out of attempts and reports failure honestly.
    Runtime rt(4, 7);
    FaultScenario first;
    first.faultyNode = 0;
    first.mbeRate = 1.0;
    first.persistent = true;
    ASSERT_TRUE(rt.runInference(pairWork, first, 4).success);
    ASSERT_TRUE(rt.spareUsed());

    FaultScenario second;
    second.faultyNode = 2;
    second.mbeRate = 1.0;
    second.persistent = true;
    const auto report = rt.runInference(pairWork, second, 3);
    EXPECT_FALSE(report.success);
    EXPECT_EQ(report.attempts, 3u);
    EXPECT_GT(report.mbesObserved, 0u);
}

TEST(RuntimeEdge, DeadlineAbortsWedgedRun)
{
    // A chip waiting forever (PollRecv with no sender) trips the
    // runToCompletion deadline rather than hanging.
    SystemConfig cfg;
    cfg.numTsps = 8;
    Machine sys(cfg);
    std::vector<Program> payloads(8);
    auto &poll = payloads[0].emit(Op::PollRecv);
    poll.port = 0;
    poll.dst = 1;
    sys.launch(std::move(payloads), 0);
    const Tick deadline = 10 * kPsPerUs;
    EXPECT_FALSE(sys.runToCompletion(deadline));
    EXPECT_LE(sys.eventq().now(), deadline);
}

TEST(RuntimeEdge, AlignedLaunchOnTripleRingMultiHopTree)
{
    // The ring-wired node has a spanning tree of height > 1: the
    // DESKEW/TRANSMIT alignment must still start everyone on the same
    // epoch through the multi-hop token relay.
    SystemConfig cfg;
    cfg.numTsps = 8;
    Machine sys(cfg, Topology::makeNode(NodeWiring::TripleRing));
    const SyncTree tree = SyncTree::build(sys.topo(), 0);
    EXPECT_GE(tree.height(), 2u);

    std::vector<Program> payloads(8);
    for (auto &p : payloads)
        p.emitCompute(100);
    sys.launchAligned(std::move(payloads));
    ASSERT_TRUE(sys.runToCompletion());
    const Cycle h0 =
        sys.chip(0).clock().tickToCycle(sys.chip(0).stats().haltTick);
    for (TspId t = 1; t < 8; ++t)
        EXPECT_EQ(sys.chip(t).clock().tickToCycle(
                      sys.chip(t).stats().haltTick),
                  h0);
}

TEST(RuntimeEdge, DescribeStringsAreHuman)
{
    EXPECT_NE(Topology::makeNode().describe().find("single node"),
              std::string::npos);
    EXPECT_NE(
        Topology::makeSingleLevel(4).describe().find("single-level"),
        std::string::npos);
    EXPECT_NE(Topology::makeTwoLevel(2).describe().find("two-level"),
              std::string::npos);
    EXPECT_STREQ(linkClassName(LinkClass::IntraNode), "intra-node");
    EXPECT_STREQ(linkClassName(LinkClass::InterRack), "inter-rack");
}

TEST(RuntimeEdge, GlobalAddrStringsRoundTripVisually)
{
    GlobalAddr g;
    g.device = 7;
    g.local = LocalAddr::unflatten(4096 * 2 + 5);
    EXPECT_NE(g.str().find("dev7"), std::string::npos);
    EXPECT_NE(g.str().find("+5"), std::string::npos);
}

TEST(RuntimeEdge, SystemWithErrorsCountsThem)
{
    SystemConfig cfg;
    cfg.numTsps = 8;
    cfg.errors.mbePerVector = 1.0;
    Machine sys(cfg);
    // One raw transfer: the MBE is detected and counted.
    TensorTransfer t;
    t.flow = 1;
    t.src = 0;
    t.dst = 1;
    t.vectors = 3;
    auto compiled = compileTransfers(sys.topo(), {t});
    ASSERT_TRUE(compiled);
    sys.chip(0).setStream(0, makeVec(Vec(1.0f)));
    sys.launch(std::move(compiled->programs.byChip), 0);
    ASSERT_TRUE(sys.runToCompletion());
    EXPECT_GE(sys.criticalErrors(), 3u);
}

} // namespace
} // namespace tsm
