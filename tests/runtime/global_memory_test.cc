#include <gtest/gtest.h>

#include <vector>

#include "runtime/global_memory.hh"

namespace tsm {
namespace {

class GlobalMemFixture : public ::testing::Test
{
  protected:
    GlobalAddr
    at(TspId device, std::uint32_t word)
    {
        GlobalAddr g;
        g.device = device;
        g.local = LocalAddr::unflatten(word);
        return g;
    }

    Machine machine{SystemConfig{}}; // one node of 8 TSPs
    const Topology &topo = machine.topo();
    GlobalMemory gm{machine};
};

TEST_F(GlobalMemFixture, CapacityMatchesFigThree)
{
    // 8 devices x 220 MiB = 1.72 GiB in a node; the rank-5 tensor has
    // [8, 2, 44, 2, 4096] vector words.
    EXPECT_EQ(gm.capacity(), 8ull * 220 * kMiB);
    EXPECT_EQ(gm.words(), 8ull * 2 * 44 * 2 * 4096);
}

TEST_F(GlobalMemFixture, HostReadWriteRoundTrip)
{
    gm.write(at(3, 1000), makeVec(Vec(1.5f)));
    EXPECT_TRUE(gm.present(at(3, 1000)));
    EXPECT_FALSE(gm.present(at(4, 1000)));
    EXPECT_EQ((*gm.read(at(3, 1000)))[0], 1.5f);
}

TEST_F(GlobalMemFixture, SinglePushMovesData)
{
    for (std::uint32_t w = 0; w < 10; ++w)
        gm.write(at(0, 100 + w), makeVec(Vec(float(w))));

    PushRequest push;
    push.src = at(0, 100);
    push.dstDevice = 5;
    push.dstAddr = LocalAddr::unflatten(2000);
    push.vectors = 10;
    gm.execute({push});

    for (std::uint32_t w = 0; w < 10; ++w) {
        ASSERT_TRUE(gm.present(at(5, 2000 + w))) << w;
        EXPECT_EQ((*gm.read(at(5, 2000 + w)))[0], float(w));
    }
}

TEST_F(GlobalMemFixture, ManyConcurrentPushesAllLand)
{
    // Every device pushes a distinct region to its neighbour: 8
    // concurrent flows over the node.
    std::vector<PushRequest> pushes;
    for (TspId d = 0; d < 8; ++d) {
        for (std::uint32_t w = 0; w < 5; ++w)
            gm.write(at(d, w), makeVec(Vec(float(d * 100 + w))));
        PushRequest p;
        p.src = at(d, 0);
        p.dstDevice = (d + 1) % 8;
        p.dstAddr = LocalAddr::unflatten(500);
        p.vectors = 5;
        pushes.push_back(p);
    }
    gm.execute(pushes);
    for (TspId d = 0; d < 8; ++d) {
        const TspId from = (d + 7) % 8;
        for (std::uint32_t w = 0; w < 5; ++w) {
            ASSERT_TRUE(gm.present(at(d, 500 + w)));
            EXPECT_EQ((*gm.read(at(d, 500 + w)))[0],
                      float(from * 100 + w));
        }
    }
}

TEST_F(GlobalMemFixture, RepeatedBatchesRebaseOntoCurrentTime)
{
    gm.write(at(0, 0), makeVec(Vec(1.0f)));
    PushRequest p;
    p.src = at(0, 0);
    p.dstDevice = 1;
    p.dstAddr = LocalAddr::unflatten(0);
    p.vectors = 1;
    const Tick t1 = gm.execute({p});
    // Second batch launches after time has advanced; compiled cycle
    // numbers must re-base, not panic.
    p.dstDevice = 2;
    const Tick t2 = gm.execute({p});
    EXPECT_GT(t2, t1);
    EXPECT_TRUE(gm.present(at(2, 0)));
}

TEST_F(GlobalMemFixture, CompileReportsCompletionAndValidates)
{
    PushRequest p;
    p.src = at(2, 50);
    p.dstDevice = 6;
    p.dstAddr = LocalAddr::unflatten(60);
    p.vectors = 100;
    p.earliest = 300;
    const auto compiled = gm.compile({p});
    EXPECT_TRUE(validateSchedule(compiled.schedule, topo).ok);
    EXPECT_GE(compiled.schedule.flows.at(1).firstDeparture, 300u);
    EXPECT_GT(compiled.completion, compiled.schedule.makespan);
}

TEST_F(GlobalMemFixture, PushTimeIsMicrosecondsForMegabytes)
{
    // The abstract's framing: global memory accessible in
    // microseconds. 1 MiB across the node lands in a handful of us.
    for (std::uint32_t w = 0; w < bytesToVectors(kMiB); ++w)
        gm.write(at(0, w), makeVec(Vec(1.0f)));
    PushRequest p;
    p.src = at(0, 0);
    p.dstDevice = 7;
    p.dstAddr = LocalAddr::unflatten(0);
    p.vectors = std::uint32_t(bytesToVectors(kMiB));
    const auto compiled = gm.compile({p});
    const double us =
        double(compiled.completion) / kCoreFreqHz * 1e6;
    EXPECT_LT(us, 25.0);
    EXPECT_GT(us, 1.0);
}

TEST_F(GlobalMemFixture, BoundsAreEnforced)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    PushRequest p;
    p.src = at(0, LocalAddr::kWords - 1);
    p.dstDevice = 1;
    p.dstAddr = LocalAddr::unflatten(0);
    p.vectors = 2; // runs past the end
    EXPECT_DEATH(gm.compile({p}), "past the end");
}

} // namespace
} // namespace tsm
