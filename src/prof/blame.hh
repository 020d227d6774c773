/**
 * @file
 * Cross-flow contention attribution: who did every wait *wait for*?
 *
 * The profiler (prof/profiler.hh) measures how long each transfer
 * waited (`TransferRecord::waitPs`) and how long flits sat in each
 * link's receive queue, but both are single unattributed buckets.
 * This layer decomposes every waited picosecond into per-blocker
 * shares, by replaying the same trace stream through a passive
 * `BlameSink`:
 *
 *  - Chip occupancy timeline: every instruction-issue event opens a
 *    disjoint occupancy interval on its chip; the Ssn send/recv event
 *    that precedes it at the same (actor, tick) tags the interval
 *    with the flow/vector the instruction serves.
 *  - Wait decomposition: each consuming Recv is paired with its
 *    flit's arrival (the same oldest-first pairing the profiler
 *    uses), and the [arrival, recv) window is partitioned against
 *    the destination chip's occupancy intervals — time covered by a
 *    tagged interval is blamed on that flow, time covered by an
 *    untagged one is "local" chip work, and uncovered time is
 *    "margin" (the slack the SSN schedule budgeted). The three kinds
 *    of share sum *exactly* to the wait, and the final-hop
 *    decomposition is exactly the transfer's `waitPs` — the
 *    waterfall-exactness invariant extended to attribution.
 *  - Accounts: per-transfer blame breakdowns, a flow x flow blame
 *    matrix, per-link blame totals that reconcile with the
 *    profiler's queue-delay histograms, "blocked-by" causal chains
 *    following each transfer's dominant blocker through span
 *    identity, and a windowed per-link contention grid
 *    (telemetry/contention.hh).
 *
 * Static blame (scheduleBlame) answers the same question at compile
 * time, from the finished schedule: which flows' serialization
 * windows pushed each vector's departures past their ready cycles.
 *
 * A `BlameCollector` bundles the sink with run identity plus the
 * static blame of the run's schedule and emits one
 * byte-deterministic `tsm-blame-v1` document. Like the host profile,
 * it is a separate document on purpose: enabling --blame must not
 * perturb any other artifact.
 */

#ifndef TSM_PROF_BLAME_HH
#define TSM_PROF_BLAME_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/units.hh"
#include "net/flit.hh"
#include "net/topology.hh"
#include "ssn/scheduler.hh"
#include "telemetry/contention.hh"
#include "trace/trace.hh"

namespace tsm {

/** Schema tag stamped into every blame document. */
inline constexpr const char *kBlameSchema = "tsm-blame-v1";

/** One vector's identity as a blocker. */
using BlamedVector = std::pair<FlowId, std::uint32_t>;

/** Shares of one decomposed wait window. */
struct WaitShares
{
    /** Blocking flow -> picoseconds of the wait it occupied. */
    std::map<FlowId, Tick> flowPs;

    /** Blocking vector -> picoseconds (refines flowPs; for chains). */
    std::map<BlamedVector, Tick> vectorPs;

    /** Untagged chip work (reads/writes/compute) inside the wait. */
    Tick localPs = 0;

    /** Uncovered time: the schedule's budgeted deskew margin. */
    Tick marginPs = 0;

    Tick
    totalPs() const
    {
        Tick total = localPs + marginPs;
        for (const auto &[flow, ps] : flowPs)
            total += ps;
        return total;
    }

    void accumulate(const WaitShares &other);
};

/** One transfer's blame breakdown (final-hop wait decomposition). */
struct TransferBlame
{
    FlowId flow = kFlowInvalid;
    std::uint32_t seq = 0;
    TspId src = 0; ///< chip whose Send opened the span
    TspId dst = 0; ///< chip whose Recv closed it (valid once closed)
    Tick waitPs = 0;
    WaitShares shares;
    bool closed = false;
};

/** One link's aggregated blame account (every paired recv). */
struct LinkBlame
{
    std::uint64_t recvs = 0;

    /** Total receive-queue wait; reconciles with the profiler's
     *  per-link queue-delay histogram sum. */
    Tick waitPs = 0;
    WaitShares shares;
};

/**
 * Static (compile-time) contention attribution. Every cycle a vector
 * was pushed past its ready time during scheduling is charged either
 * to the flow whose reserved serialization window occupied the link
 * direction, or to the per-chip instruction-issue limit ("issue").
 * Keys are std::maps so iteration — and thus any serialized form —
 * is deterministic.
 */
struct ScheduleBlame
{
    /** blocked flow -> blocking flow -> cycles of induced delay. */
    std::map<FlowId, std::map<FlowId, Cycle>> flowPairCycles;

    /** link -> blocking flow -> cycles of delay it induced there. */
    std::map<LinkId, std::map<FlowId, Cycle>> linkFlowCycles;

    /** blocked flow -> total delay cycles (link + issue). */
    std::map<FlowId, Cycle> flowDelayCycles;

    /** All delay cycles across all vectors and hops. */
    Cycle totalDelayCycles = 0;

    /** Share of the delay due to the one-send-per-chip issue limit. */
    Cycle issueDelayCycles = 0;
};

/**
 * Who delayed whom in a finished schedule, recomputed as a pass over
 * its ScheduleGraph. A hop's delay is its departure minus its ready
 * cycle: the previous hop's arrival plus the forward pipeline, or for
 * hop 0 the cycle the scheduler let the vector inject on its path (the
 * flow's earliest cycle for the first vector on a link sequence, then
 * the previous such vector's departure plus one window). The delay is
 * charged to the windows on the hop's link direction that overlap it
 * and that belong to vectors earlier in schedule order — the windows
 * the scheduler had reserved when it placed the hop; the uncovered
 * rest is the chip's issue limit. Flow ids must be unique.
 */
ScheduleBlame scheduleBlame(const NetworkSchedule &sched,
                            const Topology &topo);

/** Folds the trace stream into blame accounts. Purely passive. */
class BlameSink : public TraceSink
{
  public:
    unsigned categoryMask() const override { return kTraceDefaultCats; }

    void event(const TraceEvent &ev) override;
    void finish() override {}

    /// @name Accounts (keyed deterministically)
    /// @{
    const std::map<SpanId, TransferBlame> &transfers() const
    {
        return transfers_;
    }
    const std::map<LinkId, LinkBlame> &links() const { return links_; }

    /** blocked flow -> blocking flow -> picoseconds. */
    const std::map<FlowId, std::map<FlowId, Tick>> &flowPairs() const
    {
        return flowPairs_;
    }

    const ContentionGrid &grid() const { return grid_; }

    /** Recvs paired / total wait decomposed across all of them. */
    std::uint64_t recvs() const { return recvs_; }
    Tick totalWaitPs() const { return totalWaitPs_; }
    /// @}

  private:
    /** One occupancy interval on a chip's issue timeline. */
    struct Occupancy
    {
        Tick start;
        Tick end;
        FlowId flow;
        std::uint32_t seq;
        bool tagged;
    };

    /** Flow/vector tag for the chip event at the same (actor, tick). */
    struct PendingTag
    {
        Tick tick = 0;
        FlowId flow = kFlowInvalid;
        std::uint32_t seq = 0;
        bool valid = false;
    };

    void chipEvent(const TraceEvent &ev);
    void netEvent(const TraceEvent &ev);
    void ssnEvent(const TraceEvent &ev);
    WaitShares decompose(TspId chip, Tick from, Tick to) const;

    std::unordered_map<TspId, std::vector<Occupancy>> occupancy_;
    std::unordered_map<TspId, PendingTag> pendingTag_;

    /** In-flight flits awaiting their consuming Recv: (flow,seq). */
    std::map<BlamedVector, std::vector<std::pair<Tick, LinkId>>>
        inFlight_;

    /** Decomposition of the most recent recv of each (flow,seq):
     *  claimed by span_close as the transfer's wait breakdown. */
    std::map<BlamedVector, WaitShares> lastRecv_;
    std::map<BlamedVector, Tick> lastRecvWaitPs_;

    std::map<SpanId, TransferBlame> transfers_;
    std::map<LinkId, LinkBlame> links_;
    std::map<FlowId, std::map<FlowId, Tick>> flowPairs_;
    ContentionGrid grid_;

    std::uint64_t recvs_ = 0;
    Tick totalWaitPs_ = 0;
};

/** Collects one run's blame accounts and serializes them. */
class BlameCollector : public Observer
{
  public:
    /**
     * Stamps the run identity and, for a compiled run, attaches its
     * schedule.
     */
    void onCompiled(const RunIdentity &run,
                    const CompiledScenario *compiled) override;

    TraceSink *traceSink() override { return &sink_; }

    /** The trace sink to attach to the run's Tracer. */
    BlameSink &sink() { return sink_; }
    const BlameSink &sink() const { return sink_; }

    /**
     * Attach the static blame of the run's schedule; enables the
     * document's "schedule" section (who pushed whose departures,
     * recomputed from the finished schedule).
     */
    void setSchedule(const NetworkSchedule &sched, const Topology &topo);

    /**
     * Build the tsm-blame-v1 document. Call after the trace stream
     * is finished. Deterministic: same-seed runs emit identical
     * bytes.
     */
    Json report() const;

  private:
    BlameSink sink_;
    std::optional<Json> schedule_;
};

/**
 * Render a blame document as a human-readable triage summary: top
 * contended links, top blamed flow pairs (runtime and compile-time),
 * and the blocked-by chains of the most-delayed transfers. Accepts
 * any "tsm-blame-v1" document, in-process or reloaded from disk.
 */
std::string renderBlameSummary(const Json &blame, unsigned top_k = 5);

/**
 * Validate the blame-exactness invariants of a document: every
 * transfer's shares sum exactly to its wait, every link's shares sum
 * to its wait total, and the windowed grid's per-link totals match
 * the link accounts. Returns true when all hold; appends one line
 * per violation to `*why` otherwise.
 */
bool checkBlameExactness(const Json &blame, std::string *why = nullptr);

} // namespace tsm

#endif // TSM_PROF_BLAME_HH
