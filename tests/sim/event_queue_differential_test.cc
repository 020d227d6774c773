/**
 * @file
 * Differential test of the event kernel: the library's EventQueue
 * against the old std::priority_queue implementation kept in
 * reference_event_queue.*. Seeded random programs (typed post() events
 * mixed with std::function callbacks; same-tick bursts up to 2,560
 * events; delays within a bucket, across buckets and past the
 * calendar's horizon; handlers that schedule at now() and later;
 * runUntil boundaries mid-bucket followed by schedules before the next
 * pending event; run(limit); reset() with events both in the ring and
 * beyond it) must dispatch the identical (tick, seq, span, kind)
 * sequence and leave both queues in the same state after every step.
 *
 * A 16-TSP drifting, jittered Machine::synchronize is also pinned
 * by its full-category timeline digest: the checked-in scenarios never
 * run HAC alignment, so this is the one pin on that event path.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "hostprof/hostprof.hh"
#include "reference_event_queue.hh"
#include "runtime/machine.hh"
#include "sim/event_queue.hh"
#include "trace/digest.hh"

namespace tsm {
namespace {

/** One dispatch as the queue reported it, plus the callback's kind. */
struct Dispatch
{
    Tick tick = 0;
    std::int64_t seq = 0;
    SpanId span = kSpanNone;
    EventKind kind = EventKind::Generic;

    bool operator==(const Dispatch &) const = default;
};

/** Queue state after one driver step. */
struct Step
{
    std::uint64_t executed = 0;
    Tick now = 0;
    std::size_t pending = 0;

    bool operator==(const Step &) const = default;
};

/** Collects the queue's per-dispatch Sim trace events. */
class DispatchSink : public TraceSink
{
  public:
    unsigned categoryMask() const override
    {
        return traceCatBit(TraceCat::Sim);
    }

    void
    event(const TraceEvent &ev) override
    {
        if (ev.op == TraceOp::Dispatch)
            seen.push_back({ev.tick, ev.a, ev.span, EventKind::Generic});
    }

    std::vector<Dispatch> seen;
};

/** Everything one program run observed. */
struct Outcome
{
    std::vector<Dispatch> dispatches;
    std::vector<Step> steps;
    std::array<std::uint64_t, kNumEventKinds> kindEvents{};
    std::uint64_t payloadErrors = 0;
    std::uint64_t resets = 0;

    /// @name Calendar edges the program reached
    /// @{
    std::uint64_t typed = 0;       ///< post() events
    std::uint64_t callbacks = 0;   ///< schedule() events
    std::uint64_t beyond = 0;      ///< scheduled past the ring's horizon
    std::uint64_t bigBursts = 0;   ///< same-tick bursts of >= 2,048
    std::uint64_t belowNext = 0;   ///< runUntil stopped mid-bucket, then
                                   ///< a schedule before the next event
    std::uint64_t mixedResets = 0; ///< reset() with ring and far events
    /// @}
};

/** The calendar's geometry, which the programs aim at. */
constexpr Tick kBucket = EventQueue::kBucketPs;
constexpr Tick kHorizon = kBucket * EventQueue::kCalendarBuckets;

/** Schedule a typed event: post() here, a std::function in the oracle. */
void
post(EventQueue &eq, Tick when, EventQueue::Thunk fn, void *ctx,
     std::uint64_t arg, SpanId span, EventKind kind)
{
    eq.post(when, fn, ctx, arg, span, kind);
}

void
post(reference::EventQueue &eq, Tick when, EventQueue::Thunk fn, void *ctx,
     std::uint64_t arg, SpanId span, EventKind kind)
{
    eq.schedule(when, [fn, ctx, arg] { fn(ctx, arg); }, span, kind);
}

/**
 * A seeded random program driving queue type `Q`. Callbacks and the
 * driver draw from one Rng, so two queues that dispatch identically
 * also run identical programs. Delays span the same tick, the same
 * bucket, neighbouring buckets and past the ring's horizon; events mix
 * typed post() records with std::function callbacks.
 */
template <class Q>
class Program
{
  public:
    explicit Program(std::uint64_t seed) : rng_(seed) {}

    Outcome
    run()
    {
        DispatchSink sink;
        HostProfiler hp;
        eq_.tracer().addSink(&sink);
        eq_.setHostProfiler(&hp);

        const unsigned steps = 20 + unsigned(rng_.below(40));
        for (unsigned s = 0; s < steps; ++s)
            step();
        out_.steps.push_back({eq_.run(), eq_.now(), eq_.pending()});

        eq_.setHostProfiler(nullptr);
        eq_.tracer().removeSink(&sink);

        EXPECT_EQ(sink.seen.size(), kinds_.size());
        for (std::size_t i = 0; i < sink.seen.size() && i < kinds_.size();
             ++i)
            sink.seen[i].kind = kinds_[i];
        out_.dispatches = std::move(sink.seen);
        for (unsigned k = 0; k < kNumEventKinds; ++k)
            out_.kindEvents[k] = hp.kind(EventKind(k)).events;
        return std::move(out_);
    }

  private:
    /** A capture too large for std::function's inline buffer. */
    using Payload = std::array<std::uint64_t, 8>;

    void
    record()
    {
        out_.steps.push_back({0, eq_.now(), eq_.pending()});
    }

    /** A delay at one of the calendar's scales. */
    Tick
    delay()
    {
        const std::uint64_t r = rng_.below(20);
        if (r < 8)
            return Tick(rng_.below(4)); // same tick or bucket
        if (r < 14)
            return Tick(rng_.below(200));
        if (r < 18)
            return Tick(rng_.below(4 * kBucket)); // neighbouring buckets
        return Tick(rng_.below(3 * kHorizon));  // often past the horizon
    }

    void
    step()
    {
        const std::uint64_t op = rng_.below(20);
        if (op < 5) {
            // Same-tick burst, at now() or a little later.
            const Tick when = eq_.now() + Tick(rng_.below(3)) * 7;
            const unsigned n = 1 + unsigned(rng_.below(12));
            for (unsigned i = 0; i < n; ++i)
                spawn(when);
            record();
        } else if (op < 6) {
            // A burst wide enough to show any per-tick scan.
            const Tick when = eq_.now() + delay();
            const unsigned n = 2048 + unsigned(rng_.below(512));
            for (unsigned i = 0; i < n; ++i)
                spawn(when, /*children=*/false);
            ++out_.bigBursts;
            record();
        } else if (op < 9) {
            out_.steps.push_back(
                {eq_.run(1 + rng_.below(40)), eq_.now(), eq_.pending()});
        } else if (op < 13) {
            // Boundaries land on populated ticks as often as not, and
            // often mid-bucket; a schedule right after may fall before
            // the next pending event's bucket.
            const Tick until = eq_.now() + delay();
            out_.steps.push_back(
                {eq_.runUntil(until), eq_.now(), eq_.pending()});
            if (rng_.chance(0.5)) {
                const Tick when = eq_.now() + Tick(rng_.below(3));
                if (!pending_.empty() &&
                    bucket(*pending_.begin()) > bucket(when))
                    ++out_.belowNext;
                spawn(when);
                record();
            }
        } else if (op < 18) {
            spawn(eq_.now() + delay());
            record();
        } else if (rng_.chance(0.3)) {
            std::uint64_t far = 0;
            for (Tick when : pending_)
                far += bucket(when) >= bucket(eq_.now()) +
                                           EventQueue::kCalendarBuckets;
            if (far > 0 && far < pending_.size())
                ++out_.mixedResets;
            eq_.reset();
            pending_.clear();
            ++out_.resets;
            record();
        }
    }

    static Tick bucket(Tick when) { return when / kBucket; }

    /** Schedule one event; its handler may schedule children. */
    void
    spawn(Tick when, bool children = true)
    {
        const SpanId span = SpanId(rng_.below(5));
        const EventKind kind = EventKind(rng_.below(kNumEventKinds));
        pending_.insert(when);
        if (bucket(when) >=
            bucket(eq_.now()) + EventQueue::kCalendarBuckets)
            ++out_.beyond;
        const std::uint64_t r = rng_.below(4);
        if (r < 2) {
            ++out_.typed;
            post(
                eq_, when,
                [](void *self, std::uint64_t arg) {
                    static_cast<Program *>(self)->fire(EventKind(arg & 0xff),
                                                       (arg >> 8) != 0);
                },
                this, std::uint64_t(kind) | std::uint64_t(children) << 8,
                span, kind);
            return;
        }
        ++out_.callbacks;
        if (r < 3) {
            Payload p;
            for (std::size_t i = 0; i < p.size(); ++i)
                p[i] = id_ * 31 + i;
            const std::uint64_t id = id_++;
            eq_.schedule(
                when,
                [this, p, id, kind, children] {
                    for (std::size_t i = 0; i < p.size(); ++i)
                        if (p[i] != id * 31 + i)
                            ++out_.payloadErrors;
                    fire(kind, children);
                },
                span, kind);
        } else {
            ++id_;
            eq_.schedule(
                when, [this, kind, children] { fire(kind, children); }, span,
                kind);
        }
    }

    void
    fire(EventKind kind, bool children)
    {
        kinds_.push_back(kind);
        pending_.erase(pending_.find(eq_.now()));
        if (!children || budget_ == 0)
            return;
        const unsigned n = unsigned(rng_.below(4));
        for (unsigned c = 0; c < n && budget_ > 0; ++c, --budget_)
            spawn(eq_.now() + delay());
    }

    Q eq_;
    Rng rng_;
    Outcome out_;
    std::vector<EventKind> kinds_;
    /** When each pending event is due. */
    std::multiset<Tick> pending_;
    std::uint64_t id_ = 0;
    unsigned budget_ = 400;
};

TEST(EventQueueDifferential, RandomProgramsDispatchIdentically)
{
    Outcome total;
    std::uint64_t dispatches = 0;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        const Outcome want = Program<reference::EventQueue>(seed).run();
        const Outcome got = Program<EventQueue>(seed).run();
        ASSERT_EQ(got.dispatches.size(), want.dispatches.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < want.dispatches.size(); ++i) {
            const Dispatch &w = want.dispatches[i];
            const Dispatch &g = got.dispatches[i];
            ASSERT_EQ(g, w) << "seed " << seed << " dispatch " << i
                            << ": tick " << g.tick << " vs " << w.tick
                            << ", seq " << g.seq << " vs " << w.seq;
        }
        ASSERT_EQ(got.steps, want.steps) << "seed " << seed;
        EXPECT_EQ(got.kindEvents, want.kindEvents) << "seed " << seed;
        EXPECT_EQ(got.payloadErrors, 0u) << "seed " << seed;
        EXPECT_EQ(want.payloadErrors, 0u) << "seed " << seed;
        dispatches += want.dispatches.size();
        total.resets += want.resets;
        total.typed += want.typed;
        total.callbacks += want.callbacks;
        total.beyond += want.beyond;
        total.bigBursts += want.bigBursts;
        total.belowNext += want.belowNext;
        total.mixedResets += want.mixedResets;
    }
    // The programs really exercise the queue and each calendar edge.
    EXPECT_GT(dispatches, 1'000'000u);
    EXPECT_GT(total.resets, 10u);
    EXPECT_GT(total.typed, 100'000u);
    EXPECT_GT(total.callbacks, 100'000u);
    EXPECT_GT(total.beyond, 1'000u);
    EXPECT_GT(total.bigBursts, 100u);
    EXPECT_GT(total.belowNext, 100u);
    EXPECT_GT(total.mixedResets, 10u);
}

TEST(EventQueueDifferential, DriftingSynchronizeDigestIsPinned)
{
    // 16 TSPs, 50 ppm drift, link jitter: HAC exchange, aligner
    // updates and their dispatch order all fold into the digest.
    SystemConfig cfg;
    cfg.numTsps = 16;
    cfg.driftPpmSigma = 50.0;
    cfg.jitter = true;
    cfg.seed = 1;
    DigestSink digest;
    Machine sys(cfg);
    sys.tracer().addSink(&digest);
    const int residual = sys.synchronize(100 * kPsPerUs);

    EXPECT_EQ(residual, 17);
    EXPECT_EQ(digest.events(), 32149u);
    EXPECT_EQ(digest.digest(), 0xcc88c45dc82c9f22ULL);
}

} // namespace
} // namespace tsm
