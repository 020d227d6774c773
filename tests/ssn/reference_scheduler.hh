/**
 * @file
 * Test-only reference implementation of the SSN compile path: path
 * enumeration, the reservation ledger, per-chip issue slots, the
 * scheduler, program lowering and schedule validation exactly as they
 * stood before the compile path was rewritten for speed (map-based
 * ledger, set-based issue slots, two-pass BFS plus std::function DFS,
 * per-chip event vectors sorted twice, global-map validation).
 *
 * It is kept as a differential oracle: the library's implementation
 * must produce byte-identical schedules, programs and validation
 * reports, and scheduleBlame (prof/blame.hh) must recompute from the
 * finished schedule the blame this scheduler charged while placing
 * each vector. Do not optimise this code; its value is that it
 * is the old, slow, obviously-correct version.
 */

#ifndef TSM_TESTS_SSN_REFERENCE_SCHEDULER_HH
#define TSM_TESTS_SSN_REFERENCE_SCHEDULER_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "prof/blame.hh"
#include "ssn/scheduler.hh"

namespace tsm::reference {

/** Hop distance by BFS from `src` (the old Topology::distance). */
unsigned distance(const Topology &topo, TspId src, TspId dst);

/** The old Topology::paths. */
std::vector<Topology::Path> paths(const Topology &topo, TspId src,
                                  TspId dst, unsigned max_extra_hops,
                                  unsigned limit = 64);

/**
 * The old SsnScheduler::schedule, plus each flow's earliest cycle. It
 * charges static blame inline, into `*blame` when given.
 */
NetworkSchedule schedule(const Topology &topo, const SsnConfig &config,
                         const std::vector<TensorTransfer> &transfers,
                         ScheduleBlame *blame = nullptr);

/** The old validateSchedule. */
ValidationReport validateSchedule(const NetworkSchedule &sched,
                                  const Topology &topo);

/** The old tryBuildPrograms. */
bool tryBuildPrograms(
    const NetworkSchedule &sched, const Topology &topo,
    const std::unordered_map<FlowId, LocalAddr> &dst_base,
    const std::unordered_map<FlowId, LocalAddr> &src_base,
    ProgramSet &out, std::string *error);

} // namespace tsm::reference

#endif // TSM_TESTS_SSN_REFERENCE_SCHEDULER_HH
