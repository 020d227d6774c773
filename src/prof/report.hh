/**
 * @file
 * Machine-readable profile reports.
 *
 * A ProfileCollector bundles the attribution profiler
 * (prof/profiler.hh) with an optional static SSN schedule analysis
 * (prof/ssn_analysis.hh) and run identity (bench name, seed, extra
 * scalars), and serializes the whole thing as one stable JSON document
 * — schema "tsm-profile-v1". Stability matters: the same binary on the
 * same seed must produce a byte-identical report, so reports diff
 * cleanly across commits and CI can treat them as artifacts.
 *
 * The same JSON is the input to the human-readable rendering
 * (renderProfileSummary), used both by the bench binaries at exit and
 * by the offline `tsm_report` tool — one formatter, two entry points.
 */

#ifndef TSM_PROF_REPORT_HH
#define TSM_PROF_REPORT_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "prof/profiler.hh"
#include "prof/ssn_analysis.hh"

namespace tsm {

/** Schema tag stamped into every report. */
inline constexpr const char *kProfileSchema = "tsm-profile-v1";

/** Collects one run's profile and serializes it. */
class ProfileCollector : public Observer
{
  public:
    /**
     * Stamps the run identity and, for a compiled run, attaches its
     * schedule.
     */
    void onCompiled(const RunIdentity &run,
                    const CompiledScenario *compiled) override;

    TraceSink *traceSink() override { return &sink_; }

    void finish() override { sink_.finish(); }
    /** The trace sink to attach to the run's Tracer. */
    ProfilerSink &sink() { return sink_; }
    const ProfilerSink &sink() const { return sink_; }

    /**
     * Attach the static analysis of the schedule this run executed;
     * enables the report's "ssn" section (critical path,
     * predicted-vs-simulated completion).
     */
    void setSchedule(const NetworkSchedule &sched, const Topology &topo);

    /** Extra scalar fields for the report's "extra" object. */
    void addExtra(const std::string &key, double value);

    /**
     * Attach the bottleneck-phase segmentation produced by the
     * timeline sampler (telemetry/phase.hh phasesJson); enables the
     * report's "phases" section. Passed as a prebuilt JSON array: the
     * collector does not need a TimelineSampler to serialize it.
     */
    void setPhases(Json phases);

    const std::optional<SsnAnalysis> &analysis() const { return analysis_; }

    /**
     * Build the report document. Call after the trace stream is
     * finished (Tracer::finishAll or sink().finish()).
     */
    Json report() const;

  private:
    ProfilerSink sink_;
    std::optional<SsnAnalysis> analysis_;
    std::vector<std::pair<std::string, double>> extras_;
    std::optional<Json> phases_;
};

/**
 * Render a report document as a human-readable summary: run header,
 * per-chip functional-unit utilization, top-`top_k` busiest links with
 * queue-delay percentiles, HAC telemetry, and the SSN critical-path
 * breakdown. Accepts any "tsm-profile-v1" document, whether built
 * in-process or parsed back from a BENCH_*.json file.
 *
 * `host` is an optional companion "tsm-hostprof-v1" document; when
 * given, a wall-clock/sim-rate footer is appended. It is deliberately
 * NOT part of `report` — profile reports must stay byte-identical
 * whether or not host profiling ran.
 */
std::string renderProfileSummary(const Json &report, unsigned top_k = 5,
                                 const Json *host = nullptr);

/**
 * Serialize `report` to `path` (pretty-printed, trailing newline).
 * Returns false and fills `error` (when given) on I/O failure.
 */
bool writeProfileReport(const std::string &path, const Json &report,
                        std::string *error = nullptr);

/**
 * Read a document back: null, with "cannot open PATH", "PATH: <parse
 * error>" or "PATH: not a SCHEMA document" in `*error`, when the file
 * is unreadable, malformed, or (for a non-null `schema`) of another
 * schema.
 */
Json readDocument(const std::string &path, const char *schema,
                  std::string *error);

} // namespace tsm

#endif // TSM_PROF_REPORT_HH
