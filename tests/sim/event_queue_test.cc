#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"

namespace tsm {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunWithLimit)
{
    EventQueue eq;
    int fired = 0;
    for (Tick t = 1; t <= 5; ++t)
        eq.schedule(t, [&] { ++fired; });
    EXPECT_EQ(eq.run(3), 3u);
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, ScheduleAfterUsesNow)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(10, [&] {
        eq.scheduleAfter(5, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, ResetDropsEverything)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.reset();
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, ScheduleAtNowInsideCallbackRunsSameRun)
{
    // The same-tick rule (sim/event_queue.hh): an event scheduled for
    // the current tick from within a callback must still execute in
    // this run(), after the events already queued for that tick
    // (insertion order).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.schedule(eq.now(), [&] { order.push_back(3); });
    });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, ScheduleAfterZeroDelayIsLegal)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { eq.scheduleAfter(0, [&] { ++fired; }); });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SameTickStabilityAcrossInterleavedSchedules)
{
    // Insertion order at one tick must hold even when schedules for
    // that tick are interleaved with schedules for other ticks — the
    // global sequence number, not heap luck, decides.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(20, [&] { order.push_back(100); });
    eq.schedule(10, [&] { order.push_back(0); });
    eq.schedule(20, [&] { order.push_back(101); });
    eq.schedule(5, [&] { order.push_back(-1); });
    eq.schedule(20, [&] { order.push_back(102); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 100, 101, 102}));
}

TEST(EventQueue, SameTickStabilitySurvivesManyEvents)
{
    // Enough same-tick events to force heap rebalancing.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 1000; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilBoundaryIsInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(50, [&] { ++fired; });
    eq.schedule(51, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueue, RunUntilAtNowWithEmptyQueueHoldsTime)
{
    EventQueue eq;
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
    eq.runUntil(100); // not in the past; must be a no-op
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, CascadedSameTickChainTerminates)
{
    // A bounded chain of schedule-at-now events all run at one tick.
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 64)
            eq.schedule(eq.now(), chain);
    };
    eq.schedule(3, chain);
    EXPECT_EQ(eq.run(), 64u);
    EXPECT_EQ(depth, 64);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, ResetAllowsReuseFromZero)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    eq.reset();
    // After reset, scheduling at early ticks is legal again.
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 1u);
}

TEST(EventQueue, CallbackCapturesDieWhenItRuns)
{
    EventQueue eq;
    auto token = std::make_shared<int>(7);
    long during = 0;
    eq.schedule(5, [&eq, &during, token] {
        during = token.use_count();
        // A fresh event may take the slot this callback just left.
        eq.schedule(eq.now(), [] {});
    });
    EXPECT_EQ(token.use_count(), 2);
    eq.run();
    EXPECT_EQ(during, 2);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, ResetDestroysPendingCallbacks)
{
    EventQueue eq;
    auto token = std::make_shared<int>(7);
    for (Tick t = 1; t <= 3; ++t)
        eq.schedule(t, [token] {});
    EXPECT_EQ(token.use_count(), 4);
    eq.run(1);
    EXPECT_EQ(token.use_count(), 3);
    eq.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.slots(), 0u);
}

TEST(EventQueue, SlabStaysBoundedByPeakDepth)
{
    // 10^5 events whose backlog swings between empty and a few
    // thousand in waves of 5,000 events: freed slots are reused, so the
    // slab never exceeds the deepest backlog.
    EventQueue eq;
    Rng rng(42);
    std::uint64_t fired = 0;
    std::size_t peak = 0;
    std::function<void()> step = [&] {
        ++fired;
        const unsigned wave = unsigned(fired / 5000) % 2;
        const unsigned children =
            fired >= 100'000 ? 0 : unsigned(rng.below(wave ? 4 : 2));
        for (unsigned c = 0; c < children; ++c) {
            eq.schedule(eq.now() + Tick(rng.below(50)), step);
            peak = std::max(peak, eq.pending());
        }
    };
    for (int i = 0; i < 8; ++i)
        eq.schedule(Tick(i), step);
    peak = eq.pending();
    while (fired < 100'000) {
        if (eq.pending() == 0)
            eq.schedule(eq.now(), step);
        eq.run();
    }
    EXPECT_GE(fired, 100'000u);
    EXPECT_GT(peak, 100u);
    EXPECT_EQ(eq.slots(), peak);
}

TEST(EventQueueDeath, PastScheduleAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(EventQueueDeath, PastScheduleInsideCallbackAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH(eq.schedule(9, [] {}), "past");
    });
    eq.run();
}

} // namespace
} // namespace tsm
