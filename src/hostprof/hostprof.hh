/**
 * @file
 * Host-side self-profiling of the simulator.
 *
 * PRs 1–5 made the *simulated* machine observable; this subsystem
 * turns the same discipline on the simulator itself. A `HostProfiler`
 * hooks the EventQueue's run loop (sim/event_queue.hh) and measures,
 * in *wall-clock* time, where the host spends it:
 *
 *  - per-event-kind dispatch time (chip issue, flit delivery, HAC
 *    rounds, router hops — sim/event_kind.hh), measured exactly: one
 *    clock read per pop, one per callback, every nanosecond of a
 *    profiled run() lands in exactly one bucket, so the attribution
 *    sums to total wall time by construction;
 *  - event-queue telemetry: insert count, depth high-water mark,
 *    batch-insertion stats (events scheduled per dispatch), and a
 *    strided sample of raw queue-insert cost;
 *  - allocations on the event path (hostprof/alloc_hook.hh), armed
 *    only while a callback runs;
 *  - sim-rate over fixed wall-clock windows: events/sec, simulated
 *    picoseconds advanced, queue depth — the trend tsm_hotspot plots
 *    and the `sim_rate` summary it prints.
 *
 * The profiler never touches simulated state: no RNG draws, no event
 * reordering, no trace events. Journals, digests and profile reports
 * are byte-identical with and without it (tests/hostprof pins this).
 * Reports serialize as schema `tsm-hostprof-v1`; wall-time fields
 * vary run to run, count/depth fields are deterministic.
 */

#ifndef TSM_HOSTPROF_HOSTPROF_HH
#define TSM_HOSTPROF_HOSTPROF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/units.hh"
#include "sim/event_kind.hh"
#include "trace/observer.hh"

namespace tsm {

/** Schema tag stamped into every hostprof report. */
inline constexpr const char *kHostprofSchema = "tsm-hostprof-v1";

/**
 * Monotonic wall-clock source. The default reads
 * std::chrono::steady_clock; tests substitute a scripted clock to pin
 * attribution and window semantics exactly.
 */
class HostClock
{
  public:
    virtual ~HostClock() = default;

    /** Monotonic nanoseconds since an arbitrary origin. */
    virtual std::uint64_t nowNs() const;
};

/** Wall-time and counts accumulated for one event kind. */
struct HostKindStats
{
    std::uint64_t events = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
};

/** Event-queue structure telemetry. */
struct HostQueueStats
{
    /** Total schedule() calls observed. */
    std::uint64_t inserts = 0;

    /** Depth high-water mark (pending events). */
    std::uint64_t maxDepth = 0;

    /** Dispatches that scheduled at least one new event. */
    std::uint64_t batches = 0;

    /** Largest number of inserts from a single dispatch. */
    std::uint64_t maxBatch = 0;

    /** Inserts whose raw queue-insert cost was timed (1 in 64). */
    std::uint64_t sampledInserts = 0;

    /** Total wall-ns of the sampled queue inserts. */
    std::uint64_t sampledInsertNs = 0;
};

/** One closed sim-rate window. */
struct HostWindow
{
    /** Wall-ns from profiling start to the window's close. */
    std::uint64_t endNs = 0;

    /** Events dispatched within the window. */
    std::uint64_t events = 0;

    /** Simulated picoseconds the window advanced. */
    std::uint64_t simPs = 0;

    /** Queue depth when the window closed. */
    std::uint64_t depth = 0;
};

/**
 * The profiler the EventQueue drives. Attach with
 * EventQueue::setHostProfiler(); accumulates across multiple run()
 * invocations (wall time accrues only inside runs).
 */
class HostProfiler : public Observer
{
  public:
    /**
     * @param clock Wall-clock source; nullptr uses the process-wide
     *        steady clock. Borrowed — must outlive the profiler.
     * @param windowNs Sim-rate window width in wall nanoseconds
     *        (default 50 ms).
     */
    explicit HostProfiler(const HostClock *clock = nullptr,
                          std::uint64_t windowNs = 50'000'000);

    /// @name EventQueue hooks (hot path)
    /// @{

    /** run()/runUntil() entered with `depth` pending events. */
    void runBegin(Tick simNow, std::size_t depth);

    /** An event was popped; its callback is about to run. */
    void dispatchBegin();

    /** The callback returned; the queue holds `depth` events. */
    void dispatchEnd(EventKind kind, Tick simNow, std::size_t depth);

    /** True when the next queue insert should be timed. */
    bool insertSampleBegin();

    /** An event was pushed; the queue holds `depth` events. */
    void insertEnd(std::size_t depth, bool timed);

    /** run()/runUntil() returned. */
    void runEnd(Tick simNow, std::size_t depth);
    /// @}

    /// @name Results
    /// @{
    std::uint64_t events() const { return events_; }
    std::uint64_t wallNs() const { return wallNs_; }
    std::uint64_t queueNs() const { return queueNs_; }

    /** Simulated picoseconds advanced across all profiled runs. */
    std::uint64_t simPs() const { return simPs_; }

    std::uint64_t runs() const { return runs_; }
    const HostKindStats &kind(EventKind k) const;
    const HostQueueStats &queue() const { return queue_; }
    const std::vector<HostWindow> &windows() const { return windows_; }

    /** Windows not recorded once the cap was hit. */
    std::uint64_t windowsDropped() const { return windowsDropped_; }

    /** The canonical `tsm-hostprof-v1` document. */
    Json report() const;
    /// @}

  private:
    void closeWindows(std::uint64_t t, std::size_t depth);

    const HostClock *clock_;
    std::uint64_t windowNs_;

    bool started_ = false;
    bool inRun_ = false;
    bool inDispatch_ = false;
    std::uint64_t startNs_ = 0;   ///< first runBegin
    std::uint64_t mark_ = 0;      ///< last attribution boundary
    std::uint64_t runStartNs_ = 0;

    std::uint64_t events_ = 0;
    std::uint64_t wallNs_ = 0;  ///< total wall time inside runs
    std::uint64_t queueNs_ = 0; ///< pop + loop + drain (non-callback)
    std::uint64_t simPs_ = 0;
    std::uint64_t runs_ = 0;
    Tick runSimStart_ = 0;

    HostKindStats kinds_[kNumEventKinds];
    HostQueueStats queue_;
    std::uint64_t curBatch_ = 0;
    std::uint64_t insertTick_ = 0; ///< strided sampling counter
    std::uint64_t insertT0_ = 0;

    bool allocArmedPrev_ = false;
    std::uint64_t allocBase_ = 0;
    std::uint64_t allocBytesBase_ = 0;

    std::vector<HostWindow> windows_;
    std::uint64_t windowStartNs_ = 0; ///< open window's start
    std::uint64_t windowEvents_ = 0;
    std::uint64_t windowSimStartPs_ = 0;
    std::uint64_t windowsDropped_ = 0;
};

/** Windows kept per report before further samples are dropped. */
inline constexpr std::size_t kHostprofMaxWindows = 4096;

/**
 * One-line wall-clock/sim-rate footer for a `tsm-hostprof-v1`
 * document: "host: 48.1k events in 0.02 s wall (2.5 M events/s, ...)".
 * Pass nullptr (or a null document) for the "host: n/a" form — the
 * line profile summaries print when a run had no --hostprof.
 */
std::string renderHostRateLine(const Json *hostprof);

/**
 * Full ASCII rendering for tools/tsm_hotspot: run header, top event
 * kinds by wall time, queue telemetry, queue-depth sparkline and
 * sim-rate trend over the windows.
 */
std::string renderHostprof(const Json &hostprof, unsigned topK = 8);

} // namespace tsm

#endif // TSM_HOSTPROF_HOSTPROF_HH
