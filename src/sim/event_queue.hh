/**
 * @file
 * Global discrete-event simulation kernel.
 *
 * Time is a single global picosecond timeline (`Tick`); per-chip clock
 * domains (sim/clock.hh) convert their local cycles onto it.
 *
 * Same-tick rule: events at one tick run in the order they were
 * scheduled (ties break by a global sequence number, never by queue
 * position). An event scheduled at now() from inside a callback
 * therefore runs after everything already queued for now(), in the
 * same run. Receives rely on this, together with the kRxMarginCycles
 * margin (ssn/transfer.hh): a scheduled Recv never runs before the
 * delivery of the flit it reads. Together with the deterministic RNG
 * the rule makes every simulation reproducible.
 */

#ifndef TSM_SIM_EVENT_QUEUE_HH
#define TSM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/units.hh"
#include "sim/event_kind.hh"
#include "trace/trace.hh"

namespace tsm {

class HostProfiler;

/**
 * A calendar queue of fixed-size, trivially copyable event records.
 *
 * An event is a record (when, seq, fn, ctx, arg, span, kind): `fn` is a
 * plain function pointer called as fn(ctx, arg), so dispatch costs one
 * indirect call and no type erasure. Records live in one pool whose
 * freed entries are reused, so it never outgrows the peak number of
 * pending events.
 *
 * Pending records sit in a ring of kCalendarBuckets buckets, each
 * kBucketPs picoseconds wide, starting at the bucket that holds now().
 * A bucket is an intrusive doubly-linked list kept in (when, seq)
 * order: since seq grows with every schedule, an event appends at the
 * tail unless a later tick already sits in its bucket, and a same-tick
 * burst appends in O(1) whatever its size. Events beyond the ring's
 * horizon wait in a small (when, seq) heap and move into the ring, in
 * order, as the ring's start advances onto their bucket. The ring
 * starts at now()'s bucket: it advances only to an event being
 * dispatched or to the `until` of a runUntil(), so it never passes
 * now() and every schedule (>= now()) lands in or after it.
 *
 * Not thread-safe; the simulator is single-threaded by design
 * (parallelism would threaten reproducibility for no benefit at the
 * experiment sizes used here).
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** A typed event's handler: called as fn(ctx, arg). */
    using Thunk = void (*)(void *ctx, std::uint64_t arg);

    EventQueue();

    /** log2 of a calendar bucket's width in picoseconds. */
    static constexpr unsigned kBucketShift = 10;

    /** Buckets in the calendar ring (a power of two). */
    static constexpr std::uint32_t kCalendarBuckets = 1024;

    /** A bucket's width: just under one 900 MHz core cycle. */
    static constexpr Tick kBucketPs = Tick(1) << kBucketShift;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /**
     * Event records allocated, pending or free: the peak of pending()
     * since construction or the last reset().
     */
    std::size_t slots() const { return events_.size(); }

    /**
     * Schedule fn(ctx, arg) to run at absolute time `when` (>= now).
     * `span` tags the dispatch trace event with the causal transfer the
     * event serves (e.g. a flit delivery), so a divergence in the
     * dispatch stream itself can be traced back to a transfer. `kind`
     * names the subsystem the event belongs to — it never affects
     * execution, only the host profiler's wall-clock attribution.
     */
    void post(Tick when, Thunk fn, void *ctx, std::uint64_t arg,
              SpanId span, EventKind kind);

    /**
     * Schedule a callback to run at `when` (>= now): post() through a
     * slab of std::function, for tests and rare callers.
     */
    void schedule(Tick when, Callback fn, SpanId span = kSpanNone,
                  EventKind kind = EventKind::Generic);

    /** Schedule `fn` to run `delay` picoseconds from now. */
    void scheduleAfter(Tick delay, Callback fn, SpanId span = kSpanNone,
                       EventKind kind = EventKind::Generic);

    /**
     * Run events until the queue drains, `limit` events have executed
     * or the next event is later than `until`. now() stays at the last
     * event run.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t limit = ~std::uint64_t(0),
                      Tick until = kTickInvalid);

    /**
     * Run events with timestamp <= `until`. Afterwards now() == until
     * (even if the queue drained earlier).
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick until);

    /**
     * Drop all pending events, destroying their callbacks, and reset
     * time to zero.
     */
    void reset();

    /**
     * The tracer for this simulation. Every model holds (directly or
     * through its owner) a pointer to the queue, so this is the natural
     * per-simulation scope for trace sinks. With no sinks attached the
     * instrumentation reduces to one mask test per probe.
     */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /**
     * Attach a host-side self-profiler (src/hostprof) measuring
     * wall-clock attribution, queue telemetry and sim-rate, or detach
     * with nullptr. Borrowed: detach before destroying the profiler.
     * With none attached the hooks cost one pointer test per event;
     * attached or not, simulated behavior is bit-identical.
     */
    void setHostProfiler(HostProfiler *hp) { hostprof_ = hp; }
    HostProfiler *hostProfiler() const { return hostprof_; }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    static constexpr unsigned kWords = kCalendarBuckets / 64;

    /** One pending (or free) event record. */
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Thunk fn;
        void *ctx;
        std::uint64_t arg;
        SpanId span;
        std::uint32_t next; ///< bucket successor, or next free record
        std::uint32_t prev; ///< bucket predecessor
        EventKind kind;
    };
    static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) == 64);

    /** A far-heap entry; ordered by (when, seq). */
    struct FarKey
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t event;
    };

    struct Later
    {
        bool
        operator()(const FarKey &a, const FarKey &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    /** Absolute bucket number of `when`. */
    static std::uint64_t bucketOf(Tick when) { return when >> kBucketShift; }

    /** Link record `e` into its bucket in (when, seq) order. */
    void link(std::uint32_t e);

    /**
     * Move the ring's start to absolute bucket `start` (no bucket before
     * it holds an event) and pull the far events its horizon now covers
     * into the ring.
     */
    void advance(std::uint64_t start);

    /**
     * Dispatch the earliest event if it is due by `until`.
     * @return false when none is.
     */
    bool dispatchNext(Tick until);

    /** Run the queued callback in slot `arg` of queue `ctx`. */
    static void runCallback(void *ctx, std::uint64_t arg);

    std::vector<Event> events_;
    std::uint32_t freeEvents_ = kNone;
    std::array<std::uint32_t, kCalendarBuckets> head_;
    std::array<std::uint32_t, kCalendarBuckets> tail_;
    std::array<std::uint64_t, kWords> occupied_{};
    std::uint64_t start_ = 0; ///< absolute bucket at the ring's start
    std::size_t inRing_ = 0;
    std::vector<FarKey> far_;

    std::vector<Callback> callbacks_;
    std::vector<std::uint32_t> freeCallbacks_;

    std::size_t pending_ = 0;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    Tracer tracer_;
    HostProfiler *hostprof_ = nullptr;
};

} // namespace tsm

#endif // TSM_SIM_EVENT_QUEUE_HH
