/**
 * @file
 * Command-line wiring for the trace subsystem, shared by the bench
 * binaries and examples:
 *
 *   --trace=FILE   write a Chrome trace_event JSON timeline to FILE
 *   --metrics      print the metrics table at exit
 *   --digest       print the 64-bit golden timeline digest at exit
 *   --report=FILE  write a machine-readable profile report (JSON) and
 *                  print its human-readable summary at exit
 *   --journal=FILE record the canonical tsm-journal-v1 event journal
 *                  to FILE (compare two with tools/tsm_diverge)
 *   --timeline=FILE sample the run into fixed-width cycle windows and
 *                  write the tsm-timeline-v1 document to FILE (render
 *                  with tools/tsm_top, gate with tools/tsm_bench_diff)
 *   --timeline-window=N  window width in cycles (default 1024)
 *   --progress=N   heartbeat: one status line to stderr every N
 *                  simulated megacycles (fractional N allowed)
 *   --hostprof=FILE  profile the simulator itself (wall-clock per
 *                  event kind, queue telemetry, sim-rate) and write
 *                  the tsm-hostprof-v1 document to FILE (render with
 *                  tools/tsm_hotspot, gate with tools/tsm_bench_diff)
 *   --blame=FILE   attribute every wait to the flow that occupied the
 *                  contended resource and write the tsm-blame-v1
 *                  document to FILE (render with tools/tsm_blame,
 *                  heatmap with tools/tsm_top)
 *   --whatif=FILE  project counterfactual perturbations (faster links,
 *                  faster compute, removed flows) over the run's SSN
 *                  schedule and write the ranked tsm-whatif-v1 lever
 *                  table to FILE (render and re-simulate with
 *                  tools/tsm_whatif, gate with tools/tsm_bench_diff)
 *   --lanes=FILE   partition the event stream into per-chip/per-link
 *                  lanes with conservative-lookahead phases and write
 *                  the tsm-parallel-v1 concurrency profile to FILE
 *                  (render and gate with tools/tsm_lanes, diff with
 *                  tools/tsm_bench_diff)
 *
 * A TraceSession is a list of observers (trace/observer.hh), one per
 * requested output, in the order their reports print at finish().
 * Hand observers() to Machine::run (or runScenario) and every one of
 * them sees the compiled run and its event stream. attach() borrows a
 * bare Tracer for harnesses that drive their own event queue: call
 * detach() (or attach() a new tracer) before that queue is destroyed.
 */

#ifndef TSM_TRACE_SESSION_HH
#define TSM_TRACE_SESSION_HH

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cli.hh"
#include "trace/observer.hh"

namespace tsm {

class DigestSink;
class HostProfiler;
class ProfileCollector;
class Tracer;

/** Parsed trace-related command-line options. */
struct TraceOptions
{
    /** Chrome trace output path; empty = no timeline export. */
    std::string tracePath;

    /** Print the metrics table at end of session. */
    bool metrics = false;

    /** Print the golden timeline digest at end of session. */
    bool digest = false;

    /** Profile report output path; empty = no profiling. */
    std::string reportPath;

    /** Canonical event journal output path; empty = no journal. */
    std::string journalPath;

    /** Windowed timeline output path; empty = no timeline sampling. */
    std::string timelinePath;

    /** Timeline window width in core cycles. */
    unsigned timelineWindowCycles = 1024;

    /** Heartbeat interval in simulated megacycles; 0 = no heartbeat. */
    double progressMegacycles = 0.0;

    /** Host-profile output path; empty = no host profiling. */
    std::string hostprofPath;

    /** Blame document output path; empty = no blame attribution. */
    std::string blamePath;

    /** What-if document output path; empty = no what-if analysis. */
    std::string whatifPath;

    /** Lanes document output path; empty = no concurrency profiling. */
    std::string lanesPath;

    /** Register the trace flags on a strict CliParser. */
    void registerFlags(CliParser &parser);
};

/** The observers one traced run needs, bundled and CLI-configurable. */
class TraceSession
{
  public:
    TraceSession() = default;
    explicit TraceSession(TraceOptions opts);

    /** Finishes (writes/prints) if finish() was not called. */
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** True if any option requested any output. */
    bool active() const { return !observers_.empty(); }

    /** The session's observers, in report order. */
    const std::vector<Observer *> &observers() const { return observers_; }

    /**
     * Attach every observer's sink to `tracer` (detaching from any
     * previous tracer first). `tracer` must outlive the attachment.
     */
    void attach(Tracer &tracer);

    /** Detach from the current tracer, if any. */
    void detach();

    /** Current timeline digest (0 when --digest is off). */
    std::uint64_t digest() const;

    /**
     * The profile collector, or nullptr when --report is off — for
     * harness-specific extras (addExtra) before finish().
     */
    ProfileCollector *profile() { return profile_; }

    /**
     * The host-side self-profiler, or nullptr when --hostprof is off.
     * It has no trace sink: hand it to the run's EventQueue (Machine
     * run() and runScenario do this).
     */
    HostProfiler *hostprof() { return hostprof_; }

    /**
     * Stamp run identity (bench name, seed) on every observer, for
     * runs that are not compiled from a scenario.
     */
    void setRun(const std::string &bench, std::uint64_t seed);

    /**
     * Detach, then finish every observer in order: close the trace
     * file, print the requested metrics table / digest / profile
     * summary to stdout, and write each requested document.
     * Idempotent.
     */
    void finish();

  private:
    /** An owned observer and what to print/write after its finish(). */
    struct Entry
    {
        std::unique_ptr<Observer> observer;
        std::function<void()> report;
    };

    /** Append `observer` to the list; returns it, still owned here. */
    template <class T>
    T *add(std::unique_ptr<T> observer,
           std::type_identity_t<std::function<void(T &)>> report = {});

    TraceOptions opts_;
    std::vector<Entry> entries_;
    std::vector<Observer *> observers_;
    DigestSink *digest_ = nullptr;
    ProfileCollector *profile_ = nullptr;
    HostProfiler *hostprof_ = nullptr;
    Tracer *tracer_ = nullptr;
    bool finished_ = false;
};

} // namespace tsm

#endif // TSM_TRACE_SESSION_HH
