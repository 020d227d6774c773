/**
 * @file
 * Test-only reference implementation of the discrete-event kernel:
 * EventQueue exactly as it stood before the queue was rewritten as a
 * compact-key heap over a callback slab (a std::priority_queue of
 * entries each carrying its std::function).
 *
 * It is kept as a differential oracle: the library's EventQueue must
 * dispatch the identical (tick, seq, span, kind) sequence. Do not
 * optimise this code; its value is that it is the old, slow,
 * obviously-correct version.
 *
 * The original description follows.
 *
 * Global discrete-event simulation kernel.
 *
 * Time is a single global picosecond timeline (`Tick`); per-chip clock
 * domains (sim/clock.hh) convert their local cycles onto it. Events at
 * the same tick execute in insertion order, which together with the
 * deterministic RNG makes every simulation reproducible.
 */

#ifndef TSM_TESTS_SIM_REFERENCE_EVENT_QUEUE_HH
#define TSM_TESTS_SIM_REFERENCE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/units.hh"
#include "sim/event_kind.hh"
#include "trace/trace.hh"

namespace tsm {

class HostProfiler;

namespace reference {

/**
 * A binary-heap event queue. Not thread-safe; the simulator is
 * single-threaded by design (parallelism would threaten reproducibility
 * for no benefit at the experiment sizes used here).
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
     * Run events until the queue drains or `limit` events have executed.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t limit = ~std::uint64_t(0));

    /**
     * Run events with timestamp <= `until`. Afterwards now() == until
     * (even if the queue drained earlier).
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick until);

    /** Drop all pending events and reset time to zero. */
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
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback fn;
        SpanId span;
        EventKind kind;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    Tracer tracer_;
    HostProfiler *hostprof_ = nullptr;
};

} // namespace reference
} // namespace tsm

#endif // TSM_TESTS_SIM_REFERENCE_EVENT_QUEUE_HH
