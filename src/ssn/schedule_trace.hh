/**
 * @file
 * Export an SSN compile-time schedule onto a trace timeline.
 *
 * The scheduler resolves all link contention before the simulation
 * starts, so the schedule itself is already a timeline: every vector
 * occupies an exact [depart, arrive) window on every link of its path.
 * traceSchedule() replays those windows into a Tracer as Ssn-category
 * events (cycles on the common time base converted to picoseconds at
 * the nominal core period), letting the Chrome exporter draw the
 * planned link occupancy next to the simulated execution.
 */

#ifndef TSM_SSN_SCHEDULE_TRACE_HH
#define TSM_SSN_SCHEDULE_TRACE_HH

#include "ssn/scheduler.hh"
#include "trace/trace.hh"

namespace tsm {

/**
 * Emit one TraceOp::Hop event per scheduled link window (actor = link
 * id, a = flow, b = vector seq), one TraceOp::Flow event per flow
 * spanning first departure to last arrival (actor = flow id, a =
 * vectors, b = paths used; flows in ascending id order), and a final
 * TraceOp::Makespan instant.
 * Returns the number of events emitted (0 when no sink wants Ssn).
 */
std::uint64_t traceSchedule(Tracer &tracer, const NetworkSchedule &sched);

} // namespace tsm

#endif // TSM_SSN_SCHEDULE_TRACE_HH
