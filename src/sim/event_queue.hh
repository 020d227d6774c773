/**
 * @file
 * Global discrete-event simulation kernel.
 *
 * Time is a single global picosecond timeline (`Tick`); per-chip clock
 * domains (sim/clock.hh) convert their local cycles onto it.
 *
 * Same-tick rule: events at one tick run in the order they were
 * scheduled (ties break by a global sequence number, never by heap
 * position). An event scheduled at now() from inside a callback
 * therefore runs after everything already queued for now(), in the
 * same run. Receives rely on this, together with the kRxMarginCycles
 * margin (ssn/transfer.hh): a scheduled Recv never runs before the
 * delivery of the flit it reads. Together with the deterministic RNG
 * the rule makes every simulation reproducible.
 */

#ifndef TSM_SIM_EVENT_QUEUE_HH
#define TSM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hh"
#include "sim/event_kind.hh"
#include "trace/trace.hh"

namespace tsm {

class HostProfiler;

/**
 * A binary heap of compact (when, seq, slot) keys over a slab of
 * callbacks. Sifting moves only the 24-byte keys; each callback, with
 * its span and kind, stays put in its slot until it runs, and freed
 * slots are reused, so the slab never outgrows the peak number of
 * pending events. Not thread-safe; the simulator is single-threaded by
 * design (parallelism would threaten reproducibility for no benefit at
 * the experiment sizes used here).
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Callback slots allocated, pending or free: the peak of pending()
     * since construction or the last reset().
     */
    std::size_t slots() const { return slots_.size(); }

    /**
     * Schedule `fn` to run at absolute time `when` (>= now). `span`
     * tags the dispatch trace event with the causal transfer the
     * callback serves (e.g. a flit delivery), so a divergence in the
     * dispatch stream itself can be traced back to a transfer. `kind`
     * names the subsystem the callback belongs to — it never affects
     * execution, only the host profiler's wall-clock attribution.
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
    /** Heap key; ordered by (when, seq), trivially copyable. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    /** A pending event's callback and dispatch tags. */
    struct Slot
    {
        Callback fn;
        SpanId span = kSpanNone;
        EventKind kind = EventKind::Generic;
    };

    /** Pop the earliest event and run it. */
    void dispatchNext();

    std::vector<Key> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    Tracer tracer_;
    HostProfiler *hostprof_ = nullptr;
};

} // namespace tsm

#endif // TSM_SIM_EVENT_QUEUE_HH
