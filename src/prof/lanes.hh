/**
 * @file
 * Concurrency profiler: how much parallelism does the event stream
 * actually contain?
 *
 * A parallel event engine would split the single global picosecond
 * event queue into per-chip/per-link lanes synchronized by
 * conservative lookahead — the classic conservative PDES move, made
 * exact here because the SSN's link latencies are statically known.
 * Before building that engine we measure its ceiling. A `LaneSink`
 * partitions the live trace stream into the same logical lanes the
 * parallel engine would use:
 *
 *  - one lane per chip (Chip events plus the chip-actor Ssn
 *    send/recv/span events — work a per-chip worker would execute),
 *  - one lane per link *direction* (Net tx/rx/mbe events of data
 *    flows; the direction is resolved from the SSN schedule's per-hop
 *    source chip),
 *  - one shared HAC/sync lane (Sync and Runtime events, control
 *    flits, and sync-flow traffic — the global machinery a parallel
 *    engine would serialize on anyway).
 *
 * Time is cut into *phases* of one conservative lookahead each — the
 * minimum time a flit needs to cross the fastest link (serialization
 * + propagation, the delay before the Rx lands on the peer). Under
 * the phase-barrier execution model, events inside one phase can only
 * be ordered by intra-lane sequence, so a pool of W workers needs at
 * least max(busiest lane, ceil(events/W)) steps per phase. Summing
 * that over phases — and flooring at the event-DAG critical path
 * (intra-lane order plus PR 3's span ancestry across lanes) — gives
 * an exact Amdahl-style speedup bound per worker count: the number
 * CI can gate on ("the serial engine leaves >= Nx on the table").
 *
 * The schedule-replay events traceSchedule() emits before the run
 * (Hop/Flow/Makespan) are bookkeeping, not live work; they are
 * counted separately and excluded from every lane account, so the
 * reconciliation invariant — per-lane and per-phase event counts both
 * sum exactly to the live total — stays exact.
 *
 * A `LaneCollector` bundles the sink with run identity and the
 * schedule-derived lookahead/direction tables and emits one
 * byte-deterministic `tsm-parallel-v1` document. Like hostprof and
 * blame it is a separate document on purpose: enabling --lanes must
 * not perturb any other artifact.
 */

#ifndef TSM_PROF_LANES_HH
#define TSM_PROF_LANES_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/json.hh"
#include "common/units.hh"
#include "net/topology.hh"
#include "ssn/scheduler.hh"
#include "trace/trace.hh"

namespace tsm {

/** Schema tag stamped into every lanes document. */
inline constexpr const char *kLanesSchema = "tsm-parallel-v1";

/** Worker-pool sizes the speedup bound is projected for. */
inline constexpr unsigned kLaneWorkerPools[] = {2, 4, 8, 16};

/**
 * The lookahead used when no topology is attached: one vector's
 * serialization plus intra-node propagation, the fastest possible
 * cross-chip influence in any deployed topology.
 */
inline constexpr Tick kDefaultLookaheadPs =
    Tick(kVectorSerializationPs) + linkPropagationPs(LinkClass::IntraNode);

/**
 * Conservative lookahead of `topo`: the minimum over its in-service
 * links of serialization + propagation — the earliest a departure can
 * land an Rx on the peer chip. Falls back to kDefaultLookaheadPs
 * for link-less topologies.
 */
Tick conservativeLookaheadPs(const Topology &topo);

/** What kind of worker a lane belongs to. */
enum class LaneKind : std::uint8_t
{
    Chip, ///< one per chip: issue, halts, Ssn send/recv
    Link, ///< one per link direction: data-flow tx/rx/mbe
    Sync, ///< the single shared HAC/sync/runtime lane
};

/** Printable name of a lane kind ("chip", "link", "sync"). */
const char *laneKindName(LaneKind kind);

/** Identity of one lane. Ordering is the serialization order. */
struct LaneKey
{
    LaneKind kind = LaneKind::Sync;
    std::uint32_t id = 0;     ///< chip id / link id / 0
    std::uint8_t dir = 0;     ///< link lanes: 0 = a->b, 1 = b->a

    bool
    operator<(const LaneKey &o) const
    {
        if (kind != o.kind)
            return kind < o.kind;
        if (id != o.id)
            return id < o.id;
        return dir < o.dir;
    }

    bool
    operator==(const LaneKey &o) const
    {
        return kind == o.kind && id == o.id && dir == o.dir;
    }
};

/** One lane's account. */
struct LaneStats
{
    std::uint64_t events = 0;

    /** Sum of event durations (busy time a worker would execute). */
    Tick busyPs = 0;

    Tick firstTick = kTickInvalid;
    Tick lastTick = 0;

    /** Events here whose causing span last advanced in another lane. */
    std::uint64_t crossIn = 0;

    /** Critical-path depth of the lane's latest event (internal). */
    std::uint64_t depth = 0;
};

/** Folds the trace stream into lane/phase accounts. Purely passive. */
class LaneSink : public TraceSink
{
  public:
    unsigned categoryMask() const override { return kTraceDefaultCats; }

    void event(const TraceEvent &ev) override;
    void finish() override {}

    /**
     * Phase width in picoseconds. Must be set before events arrive —
     * phase assignment happens at fold time.
     */
    void setLookahead(Tick ps) { lookahead_ = ps > 0 ? ps : 1; }
    Tick lookaheadPs() const { return lookahead_; }

    /**
     * Record that the link leg with child span `child` departs from
     * side `dir` of its link (0 = Link::a, 1 = Link::b). Data-flow
     * Net events with an unknown leg fall back to direction 0.
     */
    void noteHopDirection(SpanId child, std::uint8_t dir)
    {
        hopDir_[child] = dir;
    }

    /// @name Accounts (keyed deterministically)
    /// @{
    const std::map<LaneKey, LaneStats> &lanes() const { return lanes_; }

    /** phase index -> lane -> events folded into that cell. */
    const std::map<std::uint64_t, std::map<LaneKey, std::uint64_t>> &
    phases() const
    {
        return phaseLane_;
    }

    std::uint64_t events() const { return events_; }
    std::uint64_t scheduleEvents() const { return scheduleEvents_; }
    Tick busyPs() const { return busyPs_; }
    std::uint64_t spans() const { return std::uint64_t(spanState_.size()); }
    std::uint64_t crossLaneEvents() const { return crossLaneEvents_; }
    std::uint64_t samePhaseCrossLane() const { return samePhaseCrossLane_; }

    /** Longest chain of intra-lane order + span-ancestry edges. */
    std::uint64_t criticalPathEvents() const { return criticalPath_; }
    /// @}

  private:
    /** Where the last event of a transfer span landed. */
    struct SpanState
    {
        LaneKey lane;
        std::uint64_t phase = 0;
        std::uint64_t depth = 0;
    };

    LaneKey classify(const TraceEvent &ev) const;

    Tick lookahead_ = kDefaultLookaheadPs;
    std::map<SpanId, std::uint8_t> hopDir_;

    std::map<LaneKey, LaneStats> lanes_;
    std::map<std::uint64_t, std::map<LaneKey, std::uint64_t>> phaseLane_;
    std::map<SpanId, SpanState> spanState_;

    std::uint64_t events_ = 0;
    std::uint64_t scheduleEvents_ = 0;
    Tick busyPs_ = 0;
    std::uint64_t crossLaneEvents_ = 0;
    std::uint64_t samePhaseCrossLane_ = 0;
    std::uint64_t criticalPath_ = 0;
};

/** Collects one run's lane accounts and serializes them. */
class LaneCollector : public Observer
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
    LaneSink &sink() { return sink_; }
    const LaneSink &sink() const { return sink_; }

    /**
     * Derive the conservative lookahead from `topo` and the link-leg
     * direction table from `sched`. Must run before the trace stream
     * starts — onCompiled does this for a compiled run.
     */
    void setSchedule(const NetworkSchedule &sched, const Topology &topo);

    /**
     * Build the tsm-parallel-v1 document. Call after the trace stream
     * is finished. Deterministic: same-seed runs emit identical
     * bytes.
     */
    Json report() const;

  private:
    LaneSink sink_;
};

/**
 * Render a lanes document as a human-readable summary: run header,
 * the speedup-bound table, the phase ribbon (events per phase), and
 * the per-lane heatmap of the `top_k` busiest lanes over phases,
 * bucketed to `cols` columns. Accepts any "tsm-parallel-v1" document,
 * in-process or reloaded from disk.
 */
std::string renderLanesSummary(const Json &lanes, unsigned top_k = 8,
                               unsigned cols = 64);

/**
 * Validate the reconciliation invariants of a lanes document: the
 * per-kind lane totals and the per-phase counts each sum exactly to
 * the live event total (and the fully serialized per-lane array too,
 * when it was not truncated), the occupancy histogram covers every
 * phase, and the projected speedup bounds are >= 1, monotone in the
 * worker count, and capped by the critical-path bound. Returns true
 * when all hold; appends one line per violation to `*why` otherwise.
 */
bool checkLanesInvariants(const Json &lanes, std::string *why = nullptr);

} // namespace tsm

#endif // TSM_PROF_LANES_HH
