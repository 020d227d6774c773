/**
 * @file
 * Static analysis of an SSN schedule: critical path, per-hop slack,
 * and the time decomposition of the makespan.
 *
 * The paper's core claim is that performance of a software-scheduled
 * network is a *statically analyzable* property: the schedule itself
 * contains every departure and arrival cycle, so "where did the cycles
 * go" is answerable before the simulator runs a single event. This
 * analyzer walks the schedule backwards from the makespan-defining
 * arrival, following the binding constraint at each step — the
 * forward-pipeline dependence on the previous hop, or the contention
 * edge to the vector occupying the link's previous serialization
 * window — and decomposes the end-to-end time into wire flight,
 * forward-pipeline overhead, contention wait and injection start.
 *
 * The profiler (prof/profiler.hh) pairs this static prediction with
 * the simulated timeline; on a drift-free run the two must agree
 * exactly, which tests/prof/ssn_analysis_test.cc pins.
 *
 * The critical path, static blame (prof/blame.hh) and the what-if
 * engine (prof/whatif.hh) are three passes over one ScheduleGraph.
 */

#ifndef TSM_PROF_SSN_ANALYSIS_HH
#define TSM_PROF_SSN_ANALYSIS_HH

#include <vector>

#include "common/stats.hh"
#include "ssn/scheduler.hh"

namespace tsm {

/**
 * A finished schedule as a constraint graph. Every hop is a node, in
 * schedule order (vector by vector, hop by hop), linked to the three
 * hops that can bound its departure: the previous hop of its vector,
 * the previous serialization window on its link direction and the
 * previous send from its chip. Windows on one direction never share
 * a cycle, and neither do two sends from one chip, so those two links
 * name the latest such hop departing strictly earlier.
 */
struct ScheduleGraph
{
    struct Hop
    {
        LinkId link = kLinkInvalid;
        TspId from = kTspInvalid;
        Cycle depart = 0;
        Cycle arrive = 0;
        std::uint32_t vec = 0;       ///< index into the schedule's vectors
        std::uint32_t hop = 0;       ///< position in the vector's itinerary
        std::int32_t prevInVec = -1; ///< previous hop of this vector
        std::int32_t prevDir = -1;   ///< previous window on (link, dir)
        std::int32_t prevIssue = -1; ///< previous send by this chip
    };

    ScheduleGraph(const NetworkSchedule &sched, const Topology &topo);

    /** Every hop, in schedule order. */
    std::vector<Hop> hops;

    /**
     * Hop indices by (depart, vector, hop): every constraint
     * predecessor of a hop comes before it, so one forward pass over
     * this order sees all of a hop's inputs resolved.
     */
    std::vector<std::int32_t> departureOrder;
};

/** A flow's earliest injection cycle; 0 for a flow with no summary. */
Cycle flowEarliest(const NetworkSchedule &sched, FlowId flow);

/** Why a critical-path hop departed when it did. */
enum class CritEdge : std::uint8_t
{
    Start,      ///< first constraint: the flow's injection time
    Pipeline,   ///< forward-pipeline dependence on the previous hop
    Contention, ///< waited for a link window / issue slot to free up
};

/** Short name of a critical edge kind ("start", "pipeline", ...). */
const char *critEdgeName(CritEdge e);

/** One hop on the schedule's critical path (chronological order). */
struct CritHop
{
    LinkId link = kLinkInvalid;
    TspId from = kTspInvalid;
    FlowId flow = kFlowInvalid;
    std::uint32_t seq = 0;
    Cycle depart = 0;
    Cycle arrive = 0;

    /** Cycles this hop waited beyond its earliest feasible departure. */
    Cycle wait = 0;

    /** The constraint that set this hop's departure cycle. */
    CritEdge edge = CritEdge::Start;
};

/** Full static analysis of one NetworkSchedule. */
struct SsnAnalysis
{
    /** Cycle by which every vector has arrived (== schedule makespan). */
    Cycle makespan = 0;

    /**
     * Critical path length in cycles: the arrival cycle of the chain's
     * final hop. Always equals `makespan` — the equality is an
     * internal consistency check, not an assumption.
     */
    Cycle criticalPathCycles = 0;

    /** The binding chain, source injection to final arrival. */
    std::vector<CritHop> criticalPath;

    /// @name Makespan decomposition along the critical path
    /// @{

    /**
     * Earliest feasible injection cycle of the first critical hop —
     * its flow's injection constraint. Any gap between this and the
     * hop's actual departure is counted in waitCyclesTotal, so
     * startCycle + flight + forward + wait == makespan exactly.
     */
    Cycle startCycle = 0;

    /** Cycles spent on the wire (serialization + propagation). */
    Cycle flightCyclesTotal = 0;

    /** Cycles in intermediate-hop forward pipelines. */
    Cycle forwardCyclesTotal = 0;

    /** Cycles waiting on contention (link windows, issue slots). */
    Cycle waitCyclesTotal = 0;
    /// @}

    /// @name Whole-schedule slack accounting (every hop, not just
    /// the critical path)
    /// @{

    /** Departure slack per hop, in cycles beyond earliest feasible. */
    Accumulator hopSlack;

    std::uint64_t hopsTotal = 0;

    /** Hops that waited at least one cycle. */
    std::uint64_t contendedHops = 0;

    /** True iff no hop anywhere in the schedule waited. */
    bool contentionFree = true;
    /// @}

    /**
     * Cycle at which the final scheduled Recv issues
     * (makespan + kRxMarginCycles) — what a drift-free simulation of
     * the lowered programs must reproduce exactly.
     */
    Cycle predictedCompletionCycles = 0;
};

/**
 * Analyze `sched` against `topo`. Each flow's earliest injection cycle
 * (FlowSummary::earliest) separates source-side waits from injection
 * constraints.
 */
SsnAnalysis analyzeSchedule(const NetworkSchedule &sched,
                            const Topology &topo);

} // namespace tsm

#endif // TSM_PROF_SSN_ANALYSIS_HH
