/**
 * @file
 * Deterministic load balancing: how many vectors of a tensor go down
 * each (minimal or non-minimal) path (paper §4.3, Fig 10).
 *
 * The decision the hardware-routed world makes dynamically per packet
 * is made here, once, at compile time, from the tensor's physical data
 * volume: small tensors ride the minimal path alone (extra hops cost
 * more than the spread saves); large tensors are spread across the
 * path diversity so that every path finishes at about the same time
 * (water-filling). The crossover emerges from serialization rate vs
 * per-hop latency — about 8 KB for the intra-node case, matching
 * Fig 10.
 */

#ifndef TSM_SSN_SPREAD_HH
#define TSM_SSN_SPREAD_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "net/topology.hh"
#include "ssn/reservation.hh"

namespace tsm {

/** A path with its latency, as seen by the spreader. */
struct PathChoice
{
    Topology::Path path;

    /** Pipelined latency of the path's last hop landing, in cycles. */
    Cycle latencyCycles = 0;
};

/** The spreader's verdict: vectors per path (aligned with input). */
struct SpreadPlan
{
    std::vector<std::uint32_t> vectorsPerPath;

    /** Predicted completion (cycles after injection start). */
    Cycle completionCycles = 0;

    /** Number of paths actually used. */
    unsigned pathsUsed() const;
};

/**
 * Pipelined completion time of `vectors` vectors down one path whose
 * landing latency is `path_latency`: the last vector departs after
 * (vectors-1) serialization windows and lands path_latency later.
 */
Cycle pathCompletionCycles(std::uint32_t vectors, Cycle path_latency,
                           Cycle window = kScheduleWindowCycles);

/**
 * Optimal deterministic split of `vectors` across `paths`
 * (water-filling on completion time). Paths must be sorted by latency
 * (minimal first); the plan is deterministic for identical inputs.
 */
SpreadPlan spreadVectors(std::uint32_t vectors,
                         const std::vector<PathChoice> &paths,
                         Cycle window = kScheduleWindowCycles);

/**
 * Convert topology paths to PathChoices with the scheduler's hop
 * timing model (flight + forward per intermediate hop).
 */
std::vector<PathChoice> toPathChoices(const Topology &topo,
                                      std::vector<Topology::Path> ps);

} // namespace tsm

#endif // TSM_SSN_SPREAD_HH
