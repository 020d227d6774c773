/**
 * @file
 * Causal what-if profiling: exact virtual-speedup experiments over an
 * SSN schedule.
 *
 * The paper's premise — every departure and arrival cycle is decided
 * at compile time — makes counterfactuals *computable*, not merely
 * estimable. "What does the makespan become if link L were 2x
 * faster?" is answered by replaying the schedule's own constraint
 * graph with the perturbed timing: each hop departs at the maximum of
 * its ready time (flow injection, or previous hop's arrival plus the
 * forward pipeline), the previous serialization window on its link
 * direction, and the previous instruction-issue slot on its chip.
 * Because the real scheduler placed every hop at the earliest cycle
 * satisfying exactly these constraints, the recomputation with
 * *unchanged* timing reproduces the schedule cycle-for-cycle — the
 * identity-exactness invariant tests pin — and with perturbed timing
 * it yields the schedule the same routing and resource ordering would
 * have produced on the perturbed machine.
 *
 * The engine supports five perturbation families ("levers"):
 *
 *  - link_latency    one link's propagation delay divided by k
 *  - link_bandwidth  one link's serialization time (and thus its
 *                    reservation window) divided by k
 *  - fu_throughput   every flow sourced at one chip becomes
 *                    injectable k times earlier (the producing
 *                    functional units run k times faster)
 *  - hac_drift       clock drift eliminated: the gap between the
 *                    simulated completion and the schedule's static
 *                    completion that is due to hardware-aligned
 *                    counters drifting (zero on a drift-free run)
 *  - flow_removal    one flow's traffic deleted outright; every
 *                    window and issue slot it held is released
 *
 * A WhatIfCounterfactual is not just a projection: it carries a fully
 * materialized perturbed NetworkSchedule plus the per-link physical
 * timing that justifies it, so runtime/counterfactual.hh can lower it
 * to per-chip programs and *re-simulate* it on a network with the
 * perturbed wire physics. The projected completion and the simulated
 * completion must agree exactly (gap == 0) — the same
 * prediction-vs-simulation muscle as the profiler's gap_cycles, but
 * for machines that were never built.
 *
 * WhatIfCollector folds all of this into the byte-deterministic
 * `tsm-whatif-v1` document behind the --whatif=FILE flag: a ranked
 * table of levers by projected makespan delta, rendered by
 * tools/tsm_whatif and gated by its --check mode.
 */

#ifndef TSM_PROF_WHATIF_HH
#define TSM_PROF_WHATIF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "prof/ssn_analysis.hh"
#include "trace/trace.hh"

namespace tsm {

/** Schema tag stamped into every what-if document. */
inline constexpr const char *kWhatIfSchema = "tsm-whatif-v1";

/** The perturbation families the engine can apply. */
enum class LeverKind : std::uint8_t
{
    LinkLatency,   ///< target = LinkId, propagation / factor
    LinkBandwidth, ///< target = LinkId, serialization / factor
    FuThroughput,  ///< target = TspId, source earliest / factor
    HacDrift,      ///< drift eliminated; schedule untouched
    FlowRemoval,   ///< target = FlowId, traffic deleted
};

/** Stable lever-kind name ("link_latency", ...). */
const char *leverKindName(LeverKind k);

/** One counterfactual perturbation. */
struct Perturbation
{
    LeverKind kind = LeverKind::HacDrift;

    /** LinkId / TspId / FlowId per kind; unused for hac_drift. */
    std::uint32_t target = 0;

    /**
     * Speedup factor k (>= 1 means faster): latency and serialization
     * are divided by k, injection readiness arrives k times earlier.
     * Ignored by hac_drift and flow_removal.
     */
    double factor = 1.0;

    /** Human-readable label ("link 3 bandwidth x2"). */
    std::string label() const;

    /** Stable identity key ("link_bandwidth:3:x2"). */
    std::string key() const;
};

/** Projected effect of one perturbation on the schedule. */
struct WhatIfProjection
{
    Perturbation lever;

    Cycle baseMakespan = 0;
    Cycle projectedMakespan = 0;

    /** baseMakespan - projectedMakespan; positive = speedup. */
    std::int64_t deltaCycles = 0;

    /** Flows whose completion cycle changed (includes a removed flow). */
    std::vector<FlowId> affectedFlows;

    /** Hops whose departure cycle changed. */
    std::uint64_t affectedHops = 0;

    /** Vectors deleted by a flow_removal lever. */
    std::uint32_t removedVectors = 0;
};

/** Perturbed physical timing of one link, for re-simulation. */
struct LinkTimingOverride
{
    LinkId link = kLinkInvalid;
    Tick serializationPs = 0;
    Tick propagationPs = 0;
};

/**
 * A materialized counterfactual: the perturbed schedule (its flow
 * summaries carry the perturbed injection cycles) and the per-link
 * wire timing a Network must be given so the schedule is physically
 * honest.
 */
struct WhatIfCounterfactual
{
    NetworkSchedule schedule;
    std::vector<LinkTimingOverride> linkTiming;
    WhatIfProjection projection;
};

/**
 * The recomputation core: a forward pass over the schedule's
 * ScheduleGraph. Holds references to the schedule and topology — both
 * must outlive the engine (the collector instead computes eagerly and
 * keeps nothing).
 */
class WhatIfEngine
{
  public:
    WhatIfEngine(const NetworkSchedule &sched, const Topology &topo);

    Cycle baseMakespan() const { return sched_->makespan; }

    /** Project one perturbation without materializing the schedule. */
    WhatIfProjection project(const Perturbation &p) const;

    /** Materialize the perturbed schedule for re-simulation. */
    WhatIfCounterfactual rebuild(const Perturbation &p) const;

    /**
     * The standard lever catalog at speedup `factor`: latency and
     * bandwidth per used link, throughput per source chip with a
     * non-zero injection time, removal per flow (when more than one
     * flow exists), and the drift lever. Deterministic order.
     */
    std::vector<Perturbation> enumerateLevers(double factor = 2.0) const;

    /**
     * Verify the identity invariant: recomputing with unchanged
     * timing reproduces every departure and arrival cycle exactly.
     * This is the theorem the projections rest on — any hop the
     * recomputation cannot explain means the engine's constraint
     * graph diverged from the scheduler's, and `*why` names the
     * first such hop.
     */
    bool identityExact(std::string *why = nullptr) const;

  private:
    struct Recompute
    {
        std::vector<Cycle> depart;
        std::vector<Cycle> arrive;
        std::vector<bool> removed;
        Cycle makespan = 0;
    };

    Recompute recompute(const Perturbation &p) const;

    const NetworkSchedule *sched_;
    const Topology *topo_;
    ScheduleGraph graph_;
    std::vector<LinkId> usedLinks_;    ///< ascending, deduplicated
    std::vector<FlowId> flowOrder_;    ///< ascending flow ids
};

/**
 * All levers of the standard catalog, projected and ranked by
 * projected makespan delta (descending), ties broken by kind then
 * target — the order the document and the renderer use.
 */
std::vector<WhatIfProjection> rankedLevers(const WhatIfEngine &engine,
                                           double factor = 2.0);

/**
 * Collects one run's what-if analysis and serializes it as the
 * `tsm-whatif-v1` document. setSchedule() computes everything
 * eagerly — the engine's inputs need not outlive the collector. The
 * sink only records the simulated completion tick so the document
 * can report the observed completion and the hac_drift lever.
 */
class WhatIfCollector : public Observer
{
  public:
    /**
     * Stamps the run identity and, for a compiled run, attaches its
     * schedule.
     */
    void onCompiled(const RunIdentity &run,
                    const CompiledScenario *compiled) override;

    TraceSink *traceSink() override { return &sink_; }

    /**
     * Run the engine over a compiled run's schedule, at the standard
     * catalog's speedup factor 2. Call before finish.
     */
    void setSchedule(const CompiledScenario &compiled);

    /** Build the document. Call after the run (or without one). */
    Json report() const;

  private:
    /** Minimal sink: the last scheduled-receive tick of the run (a
     *  corrupt receive still consumes its vector, so it counts). */
    class CompletionSink : public TraceSink
    {
      public:
        unsigned
        categoryMask() const override
        {
            return traceCatBit(TraceCat::Ssn);
        }

        void
        event(const TraceEvent &ev) override
        {
            if ((ev.op == TraceOp::Recv || ev.op == TraceOp::Corrupt) &&
                ev.tick > last_)
                last_ = ev.tick;
        }

        Tick last() const { return last_; }

      private:
        Tick last_ = 0;
    };

    struct LeverRecord
    {
        Perturbation lever;
        Cycle projectedMakespan = 0;
        std::int64_t deltaCycles = 0;
        std::vector<FlowId> affectedFlows;
        std::uint64_t affectedFlowsTotal = 0;
        std::uint64_t affectedHops = 0;
        std::uint32_t removedVectors = 0;
        bool onCriticalPath = false;
    };

    CompletionSink sink_;

    bool hasSchedule_ = false;
    Cycle makespan_ = 0;
    Cycle predictedCompletion_ = 0;
    Cycle staticCompletion_ = 0;
    std::uint64_t hops_ = 0;
    std::uint64_t vectors_ = 0;
    std::uint64_t flows_ = 0;
    std::uint64_t linksUsed_ = 0;
    std::uint64_t contendedHops_ = 0;
    std::uint64_t criticalPathHops_ = 0;
    std::vector<LeverRecord> levers_;
};

/**
 * The static completion cycle of lowered programs: the issue cycle of
 * the last scheduled Recv. This is what a drift-free simulation
 * reproduces tick-for-tick, including receives the lowerer slid past
 * colliding instructions — the schedule-level makespan plus the
 * receive margin plus any slide.
 */
Cycle staticCompletionCycles(const ProgramSet &programs);

/**
 * Render a `tsm-whatif-v1` document: run header, base line, and the
 * top `top_k` levers of the ranked table.
 */
std::string renderWhatIfSummary(const Json &doc, unsigned top_k = 10);

/**
 * Structural invariants of a `tsm-whatif-v1` document: schema and
 * base fields present, ranks contiguous from 1, every lever's delta
 * consistent with base and projected makespan, no negative delta on
 * a speedup lever. Returns false with a diagnosis in `*why`.
 */
bool checkWhatIfInvariants(const Json &doc, std::string *why = nullptr);

} // namespace tsm

#endif // TSM_PROF_WHATIF_HH
