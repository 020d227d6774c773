/**
 * @file
 * Executing a parsed Scenario on the simulated machine.
 *
 * Two entry points share one path: compileScenario, then Machine::run
 * with a list of observers.
 *
 *  - runScenario() drives a TraceSession, exposing the full
 *    instrumentation flag set (--trace/--report/--journal/--timeline/
 *    --progress) to scenario-driven bench binaries — a bench becomes
 *    a thin loader: parse the file, run it, print the result.
 *
 *  - executeScenario() runs headless and captures the canonical
 *    journal text, the per-transfer waterfalls, the tsm-blame-v1
 *    contention attribution, and the tsm-parallel-v1 concurrency
 *    profile in memory. This is the fuzzer's oracle: run a scenario
 *    twice and the two journals (and blame and lanes documents) must
 *    be byte-identical; every waterfall must tile its transfer's
 *    observed latency exactly; every blame breakdown must sum to its
 *    wait exactly; every lane and phase count must reconcile with the
 *    live event total exactly.
 */

#ifndef TSM_SCENARIO_RUNNER_HH
#define TSM_SCENARIO_RUNNER_HH

#include <map>
#include <optional>
#include <string>

#include "common/json.hh"
#include "prof/profiler.hh"
#include "scenario/scenario.hh"
#include "trace/session.hh"

namespace tsm {

/** Per-run knobs that override what the scenario document says. */
struct ScenarioOverrides
{
    std::optional<std::uint64_t> seed;
    std::optional<double> mbe;
};

/** Outcome of one scenario run through a TraceSession. */
struct ScenarioRunResult
{
    /** Why the scenario did not compile; empty when it ran. */
    std::string error;

    /** What ran: topology, lowered traffic, schedule, programs. */
    CompiledScenario compiled;

    /** Data flits delivered across all links. */
    std::uint64_t flitsDelivered = 0;
};

/**
 * Compile `scenario` once and run it with the session's observers.
 * They are stamped with the scenario name and the effective seed. A
 * scenario that does not compile is not run: `error` says why.
 */
ScenarioRunResult runScenario(TraceSession &session,
                              const Scenario &scenario,
                              const ScenarioOverrides &overrides = {});

/** Load the scenario file at `path` and runScenario it. */
ScenarioRunResult runScenarioFile(TraceSession &session,
                                  const std::string &path,
                                  const ScenarioOverrides &overrides = {});

/** What executeScenario captured. */
struct ScenarioExecution
{
    /** Why the scenario did not compile; empty when it ran. */
    std::string error;

    /** Canonical tsm-journal-v1 text of the full trace stream. */
    std::string journal;

    /** Per-transfer waterfalls keyed by parent span id. */
    std::map<SpanId, TransferRecord> transfers;

    /** The tsm-blame-v1 contention attribution document. */
    Json blame;

    /** Canonical serialized blame text (byte-identity oracle). */
    std::string blameText;

    /** The tsm-parallel-v1 concurrency profile document. */
    Json lanes;

    /** Canonical serialized lanes text (byte-identity oracle). */
    std::string lanesText;

    /** Per-link receive queue-delay sums from the profiler (ps). */
    std::map<LinkId, Tick> linkQueueDelayPs;

    /** Vectors the lowered transfer set moves (expected span count). */
    std::uint64_t expectedSpans = 0;

    Cycle makespan = 0;
    std::uint64_t flitsDelivered = 0;

    /** True if every transfer span opened was also closed. */
    bool allSpansClosed() const;

    /**
     * True if, for every closed transfer, serialize + flight +
     * forward + wait equals the observed end-to-end latency exactly,
     * and the number of spans matches the vectors moved.
     */
    bool waterfallsExact() const;

    /**
     * True if the blame document passes checkBlameExactness() — every
     * per-transfer and per-link breakdown sums to its wait exactly —
     * AND the per-link blamed waits reconcile with the independently
     * kept profiler queue-delay account. `why`, when given, receives
     * the first mismatch.
     */
    bool blameExact(std::string *why = nullptr) const;

    /**
     * True if the lanes document passes checkLanesInvariants() — the
     * per-kind lane totals and the per-phase counts each reconcile
     * exactly with the live event total, and the projected speedup
     * bounds are sane (>= 1, monotone, capped by the critical path).
     * `why`, when given, receives the violations.
     */
    bool lanesReconcile(std::string *why = nullptr) const;
};

/**
 * Compile `scenario` once and execute it headless with a journal, a
 * profiler, a blame and a lanes collector as its observers, capturing
 * their results. Deterministic: equal scenarios and overrides produce
 * byte-identical journals — the invariant tools/tsm_fuzz asserts. A
 * scenario that does not compile is not run: `error` says why.
 * `hostprof`, when given, observes the run's event queue (the
 * fuzzer's --stats path); it never influences the simulation, so the
 * journal is identical with and without it.
 */
ScenarioExecution executeScenario(const Scenario &scenario,
                                  const ScenarioOverrides &overrides = {},
                                  HostProfiler *hostprof = nullptr);

} // namespace tsm

#endif // TSM_SCENARIO_RUNNER_HH
