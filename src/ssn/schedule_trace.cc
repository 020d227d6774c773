#include "ssn/schedule_trace.hh"

#include <algorithm>

#include "common/units.hh"
#include "trace/span.hh"

namespace tsm {

namespace {

Tick
cycleToPs(Cycle c)
{
    return Tick(double(c) * kCorePeriodPs);
}

} // namespace

std::uint64_t
traceSchedule(Tracer &tracer, const NetworkSchedule &sched)
{
    if (!tracer.wants(TraceCat::Ssn))
        return 0;

    std::uint64_t emitted = 0;
    for (const ScheduledVector &v : sched.vectors) {
        for (std::size_t h = 0; h < v.hops.size(); ++h) {
            const ScheduledHop &hop = v.hops[h];
            tracer.emit({cycleToPs(hop.depart),
                         cycleToPs(hop.arrive) - cycleToPs(hop.depart),
                         TraceCat::Ssn, TraceOp::Hop, hop.link,
                         std::int64_t(v.flow),
                         std::int64_t(v.seq),
                         spanChild(transferSpan(v.flow, v.seq), unsigned(h))});
            ++emitted;
        }
    }

    // flows is an unordered_map; sort ids so the emission order (and
    // hence any digest over it) is deterministic.
    std::vector<FlowId> ids;
    ids.reserve(sched.flows.size());
    for (const auto &[id, summary] : sched.flows)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (FlowId id : ids) {
        const FlowSummary &f = sched.flows.at(id);
        tracer.emit({cycleToPs(f.firstDeparture),
                     cycleToPs(f.lastArrival) - cycleToPs(f.firstDeparture),
                     TraceCat::Ssn, TraceOp::Flow, f.flow,
                     std::int64_t(f.vectors),
                     std::int64_t(f.pathsUsed)});
        ++emitted;
    }

    tracer.emit({cycleToPs(sched.makespan), 0, TraceCat::Ssn,
                 TraceOp::Makespan, 0, std::int64_t(sched.makespan),
                 std::int64_t(ids.size())});
    return emitted + 1;
}

} // namespace tsm
