/**
 * @file
 * Differential test of the event kernel: the library's EventQueue
 * against the old std::priority_queue implementation kept in
 * reference_event_queue.*. Seeded random programs (same-tick bursts,
 * callbacks that schedule at now() and later, runUntil boundaries,
 * run(limit), reset()) must dispatch the identical (tick, seq, span,
 * kind) sequence and leave both queues in the same state after every
 * step.
 *
 * A 16-TSP drifting, jittered Machine::synchronize is also pinned
 * by its full-category timeline digest: the checked-in scenarios never
 * run HAC alignment, so this is the one pin on that event path.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
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
};

/**
 * A seeded random program driving queue type `Q`. Callbacks and the
 * driver draw from one Rng, so two queues that dispatch identically
 * also run identical programs.
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
    step()
    {
        const std::uint64_t op = rng_.below(10);
        if (op < 3) {
            // Same-tick burst, at now() or a little later.
            const Tick when = eq_.now() + Tick(rng_.below(3)) * 7;
            const unsigned n = 1 + unsigned(rng_.below(12));
            for (unsigned i = 0; i < n; ++i)
                spawn(when);
            out_.steps.push_back({0, eq_.now(), eq_.pending()});
        } else if (op < 5) {
            out_.steps.push_back(
                {eq_.run(1 + rng_.below(40)), eq_.now(), eq_.pending()});
        } else if (op < 7) {
            // Boundaries land on populated ticks as often as not.
            const Tick until = eq_.now() + Tick(rng_.below(60));
            out_.steps.push_back(
                {eq_.runUntil(until), eq_.now(), eq_.pending()});
        } else if (op < 9) {
            spawn(eq_.now() + Tick(rng_.below(100)));
            out_.steps.push_back({0, eq_.now(), eq_.pending()});
        } else if (rng_.chance(0.3)) {
            eq_.reset();
            ++out_.resets;
            out_.steps.push_back({0, eq_.now(), eq_.pending()});
        }
    }

    /** Schedule one event; its callback may schedule children. */
    void
    spawn(Tick when)
    {
        const SpanId span = SpanId(rng_.below(5));
        const EventKind kind = EventKind(rng_.below(kNumEventKinds));
        if (rng_.chance(0.25)) {
            Payload p;
            for (std::size_t i = 0; i < p.size(); ++i)
                p[i] = id_ * 31 + i;
            const std::uint64_t id = id_++;
            eq_.schedule(
                when,
                [this, p, id, kind] {
                    for (std::size_t i = 0; i < p.size(); ++i)
                        if (p[i] != id * 31 + i)
                            ++out_.payloadErrors;
                    fire(kind);
                },
                span, kind);
        } else {
            ++id_;
            eq_.schedule(when, [this, kind] { fire(kind); }, span, kind);
        }
    }

    void
    fire(EventKind kind)
    {
        kinds_.push_back(kind);
        if (budget_ == 0)
            return;
        const unsigned children = unsigned(rng_.below(4));
        for (unsigned c = 0; c < children && budget_ > 0; ++c, --budget_) {
            const std::uint64_t r = rng_.below(10);
            if (r < 3)
                spawn(eq_.now());
            else if (r < 7)
                spawn(eq_.now() + Tick(rng_.below(4)));
            else
                spawn(eq_.now() + Tick(rng_.below(200)));
        }
    }

    Q eq_;
    Rng rng_;
    Outcome out_;
    std::vector<EventKind> kinds_;
    std::uint64_t id_ = 0;
    unsigned budget_ = 400;
};

TEST(EventQueueDifferential, RandomProgramsDispatchIdentically)
{
    std::uint64_t dispatches = 0, resets = 0;
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
        resets += want.resets;
    }
    // The programs really exercise the queue, resets included.
    EXPECT_GT(dispatches, 100'000u);
    EXPECT_GT(resets, 10u);
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
