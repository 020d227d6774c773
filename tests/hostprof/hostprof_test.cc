#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hostprof/alloc_hook.hh"
#include "hostprof/hostprof.hh"
#include "runtime/machine.hh"
#include "sim/event_queue.hh"

namespace tsm {
namespace {

/**
 * Deterministic clock for pinning attribution and window semantics:
 * the test sets `t` between hook calls (step 0), or lets every read
 * advance it by `step` to simulate uniform per-call cost.
 */
struct ScriptedClock : HostClock
{
    mutable std::uint64_t t = 0;
    std::uint64_t step = 0;

    std::uint64_t nowNs() const override
    {
        const std::uint64_t v = t;
        t += step;
        return v;
    }
};

TEST(HostProfiler, AttributesEveryNanosecondExactly)
{
    ScriptedClock clock;
    HostProfiler hp(&clock, 1'000'000);

    clock.t = 100;
    hp.runBegin(0, 2);
    clock.t = 110;
    hp.dispatchBegin(); // 10 ns of queue time
    clock.t = 150;
    hp.dispatchEnd(EventKind::ChipIssue, 1000, 1); // 40 ns chip_issue
    clock.t = 160;
    hp.dispatchBegin(); // 10 ns of queue time
    clock.t = 200;
    hp.dispatchEnd(EventKind::NetDeliver, 3000, 0); // 40 ns net_deliver
    clock.t = 230;
    hp.runEnd(3000, 0); // 30 ns of queue (drain) time

    EXPECT_EQ(hp.events(), 2u);
    EXPECT_EQ(hp.runs(), 1u);
    EXPECT_EQ(hp.wallNs(), 130u);
    EXPECT_EQ(hp.queueNs(), 50u);
    EXPECT_EQ(hp.kind(EventKind::ChipIssue).wallNs, 40u);
    EXPECT_EQ(hp.kind(EventKind::NetDeliver).wallNs, 40u);
    EXPECT_EQ(hp.simPs(), 3000u);

    // The exactness invariant: queue + sum(kinds) == wall, identically.
    std::uint64_t kindNs = 0;
    for (unsigned k = 0; k < kNumEventKinds; ++k)
        kindNs += hp.kind(EventKind(k)).wallNs;
    EXPECT_EQ(hp.queueNs() + kindNs, hp.wallNs());
}

TEST(HostProfiler, AttributionSumsExactlyUnderFuzzedTimings)
{
    // Pseudo-random hook timings: whatever the clock does, every
    // nanosecond must land in exactly one bucket.
    ScriptedClock clock;
    HostProfiler hp(&clock, 1'000);
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    auto advance = [&] {
        rng ^= rng >> 33;
        rng *= 0xff51afd7ed558ccdULL;
        rng ^= rng >> 29;
        clock.t += rng % 997;
    };

    Tick sim = 0;
    for (unsigned run = 0; run < 7; ++run) {
        advance();
        hp.runBegin(sim, run);
        const unsigned events = (run * 13) % 29;
        for (unsigned e = 0; e < events; ++e) {
            advance();
            hp.dispatchBegin();
            advance();
            sim += (rng % 5000);
            hp.dispatchEnd(EventKind((run + e) % kNumEventKinds), sim,
                           e % 11);
        }
        advance();
        hp.runEnd(sim, 0);
    }

    std::uint64_t kindNs = 0;
    std::uint64_t kindEvents = 0;
    for (unsigned k = 0; k < kNumEventKinds; ++k) {
        kindNs += hp.kind(EventKind(k)).wallNs;
        kindEvents += hp.kind(EventKind(k)).events;
    }
    EXPECT_EQ(hp.queueNs() + kindNs, hp.wallNs());
    EXPECT_EQ(kindEvents, hp.events());
    EXPECT_EQ(hp.simPs(), std::uint64_t(sim));
    EXPECT_EQ(hp.runs(), 7u);
}

TEST(HostProfiler, ClosesWindowsOnFixedWallBoundaries)
{
    ScriptedClock clock;
    HostProfiler hp(&clock, 100); // 100 ns windows

    clock.t = 1000;
    hp.runBegin(0, 0);
    clock.t = 1010;
    hp.dispatchBegin();
    clock.t = 1050;
    hp.dispatchEnd(EventKind::Generic, 500, 3); // within window 0
    clock.t = 1060;
    hp.dispatchBegin();
    clock.t = 1120;
    hp.dispatchEnd(EventKind::Generic, 900, 2); // crosses into window 1
    ASSERT_EQ(hp.windows().size(), 1u);
    EXPECT_EQ(hp.windows()[0].endNs, 100u); // relative to start
    EXPECT_EQ(hp.windows()[0].events, 2u);
    EXPECT_EQ(hp.windows()[0].simPs, 900u);
    EXPECT_EQ(hp.windows()[0].depth, 2u);

    // A dispatch landing several windows later closes the empty
    // intermediate windows too — gaps are real data, not skipped.
    clock.t = 1130;
    hp.dispatchBegin();
    clock.t = 1420;
    hp.dispatchEnd(EventKind::Generic, 1000, 1);
    ASSERT_EQ(hp.windows().size(), 4u);
    EXPECT_EQ(hp.windows()[1].endNs, 200u);
    EXPECT_EQ(hp.windows()[1].events, 1u); // the 1120 dispatch
    EXPECT_EQ(hp.windows()[2].events, 0u);
    EXPECT_EQ(hp.windows()[3].events, 0u);
    clock.t = 1430;
    hp.runEnd(1000, 0);
    EXPECT_EQ(hp.windowsDropped(), 0u);
    // The 1420 dispatch was tallied into the window that was open when
    // it ran (closed as endNs 200), so no partial window remains open
    // and the report carries exactly the four closed windows.
    const Json doc = hp.report();
    ASSERT_EQ(doc["windows"].size(), 4u);
    EXPECT_EQ(doc["windows"].at(3)["events"].integer(), 0);
}

TEST(HostProfiler, ZeroLengthRunAccruesOnlyQueueTime)
{
    ScriptedClock clock;
    HostProfiler hp(&clock, 100);
    clock.t = 50;
    hp.runBegin(0, 0);
    clock.t = 80;
    hp.runEnd(0, 0);
    EXPECT_EQ(hp.events(), 0u);
    EXPECT_EQ(hp.wallNs(), 30u);
    EXPECT_EQ(hp.queueNs(), 30u);
    EXPECT_TRUE(hp.windows().empty());
    // And an honest zero-rate report, not a division by zero.
    const Json doc = hp.report();
    EXPECT_EQ(doc["sim_rate"]["slowdown"].number(), 0.0);
    EXPECT_EQ(doc["windows"].size(), 0u);
}

TEST(HostProfiler, QueueTelemetryAgainstScriptedEventSequence)
{
    // A real EventQueue: one seed event whose callback schedules three
    // more (a batch), each of which schedules nothing.
    EventQueue eq;
    HostProfiler hp;
    eq.setHostProfiler(&hp);
    eq.schedule(10, [&eq] {
        for (Tick t = 20; t <= 40; t += 10)
            eq.schedule(t, [] {}, kSpanNone, EventKind::Generic);
    });
    eq.run();

    EXPECT_EQ(hp.events(), 4u);
    EXPECT_EQ(hp.queue().inserts, 4u);
    // Depth peaks at 3 right after the batch insert.
    EXPECT_EQ(hp.queue().maxDepth, 3u);
    EXPECT_EQ(hp.queue().batches, 1u);
    EXPECT_EQ(hp.queue().maxBatch, 3u);
    EXPECT_EQ(hp.runs(), 1u);
}

TEST(HostProfiler, ReportSchemaAndKindOrdering)
{
    ScriptedClock clock;
    clock.step = 7;
    HostProfiler hp(&clock);
    hp.setBench("unit");
    hp.setSeed(42);
    hp.runBegin(0, 0);
    hp.dispatchBegin();
    hp.dispatchEnd(EventKind::RouterHop, 1111, 0);
    hp.runEnd(1111, 0);

    const Json doc = hp.report();
    EXPECT_EQ(doc["schema"].str(), kHostprofSchema);
    EXPECT_EQ(doc["bench"].str(), "unit");
    EXPECT_EQ(doc["seed"].integer(), 42);
    ASSERT_EQ(doc["kinds"].size(), std::size_t(kNumEventKinds));
    // Kinds serialize in enum order, every kind always present.
    EXPECT_EQ(doc["kinds"].at(0)["kind"].str(), "generic");
    EXPECT_EQ(doc["kinds"].at(1)["kind"].str(), "chip_issue");
    EXPECT_EQ(doc["kinds"].at(2)["kind"].str(), "net_deliver");
    EXPECT_EQ(doc["kinds"].at(3)["kind"].str(), "hac_update");
    EXPECT_EQ(doc["kinds"].at(4)["kind"].str(), "sync_probe");
    EXPECT_EQ(doc["kinds"].at(5)["kind"].str(), "router_hop");
    // The sections tile the wall time exactly.
    EXPECT_EQ(doc["sections"]["queue_ns"].integer() +
                  doc["sections"]["dispatch_ns"].integer(),
              doc["wall_ns"].integer());
    // And the per-kind event counts tile the event total.
    std::int64_t kindEvents = 0;
    for (const Json &k : doc["kinds"].items())
        kindEvents += k["events"].integer();
    EXPECT_EQ(kindEvents, doc["events"].integer());
}

TEST(HostProfiler, CountsEventPathAllocations)
{
    if (!hostalloc::hookCompiledIn())
        GTEST_SKIP() << "TSM_HOSTPROF_ALLOC_HOOK off";
    HostProfiler hp;
    EventQueue eq;
    eq.setHostProfiler(&hp);
    eq.schedule(10, [] {
        std::vector<char> big(4096);
        big[0] = 1;
        (void)big;
    }, kSpanNone, EventKind::NetDeliver);
    eq.run();
    EXPECT_GE(hp.kind(EventKind::NetDeliver).allocs, 1u);
    EXPECT_GE(hp.kind(EventKind::NetDeliver).allocBytes, 4096u);
}

TEST(HostProfiler, SteadyStateSyncEventsDoNotAllocate)
{
    // HAC bring-up is a stream of tiny control events: once the event
    // slab and the network's in-flight slab have grown to the peak
    // backlog, a flit delivery or an aligner round allocates nothing.
    if (!hostalloc::hookCompiledIn())
        GTEST_SKIP() << "TSM_HOSTPROF_ALLOC_HOOK off";
    SystemConfig cfg;
    cfg.numTsps = 16;
    cfg.driftPpmSigma = 50.0;
    cfg.jitter = true;
    Machine sys(cfg);
    // The first window pulls the power-up phases into line; the second
    // runs aligned, at the backlog every later window repeats.
    sys.synchronize(100 * kPsPerUs);
    sys.synchronize(100 * kPsPerUs);
    const std::size_t warmSlots = sys.eventq().slots();

    HostProfiler hp;
    sys.eventq().setHostProfiler(&hp);
    sys.synchronize(100 * kPsPerUs);
    sys.eventq().setHostProfiler(nullptr);

    ASSERT_LE(hp.queue().maxDepth, warmSlots);
    EXPECT_GT(hp.kind(EventKind::NetDeliver).events, 1000u);
    EXPECT_GT(hp.kind(EventKind::HacUpdate).events, 1000u);
    EXPECT_EQ(hp.kind(EventKind::NetDeliver).allocs, 0u);
    EXPECT_EQ(hp.kind(EventKind::HacUpdate).allocs, 0u);
}

TEST(HostProfiler, RenderHostRateLineHonestWithoutData)
{
    EXPECT_NE(renderHostRateLine(nullptr).find("host: n/a"),
              std::string::npos);
    const Json null;
    EXPECT_NE(renderHostRateLine(&null).find("host: n/a"),
              std::string::npos);
}

TEST(HostProfiler, RenderHostprofShowsHotKindsAndQueue)
{
    HostProfiler hp;
    hp.setBench("render");
    EventQueue eq;
    eq.setHostProfiler(&hp);
    for (Tick t = 10; t <= 300; t += 10)
        eq.schedule(t, [] {}, kSpanNone, EventKind::RouterHop);
    eq.run();
    const Json doc = hp.report();
    const std::string out = renderHostprof(doc);
    EXPECT_NE(out.find("render"), std::string::npos);
    EXPECT_NE(out.find("router_hop"), std::string::npos);
    EXPECT_NE(out.find("queue:"), std::string::npos);
    const std::string line = renderHostRateLine(&doc);
    EXPECT_NE(line.find("events/s"), std::string::npos);
}

} // namespace
} // namespace tsm
