#include "prof/ssn_analysis.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hh"

namespace tsm {

const char *
critEdgeName(CritEdge e)
{
    switch (e) {
      case CritEdge::Start: return "start";
      case CritEdge::Pipeline: return "pipeline";
      case CritEdge::Contention: return "contention";
    }
    return "?";
}

Cycle
flowEarliest(const NetworkSchedule &sched, FlowId flow)
{
    auto it = sched.flows.find(flow);
    return it == sched.flows.end() ? Cycle(0) : it->second.earliest;
}

ScheduleGraph::ScheduleGraph(const NetworkSchedule &sched,
                             const Topology &topo)
{
    for (std::uint32_t v = 0; v < sched.vectors.size(); ++v) {
        const ScheduledVector &sv = sched.vectors[v];
        for (std::uint32_t h = 0; h < sv.hops.size(); ++h) {
            const ScheduledHop &sh = sv.hops[h];
            Hop n;
            n.link = sh.link;
            n.from = sh.from;
            n.depart = sh.depart;
            n.arrive = sh.arrive;
            n.vec = v;
            n.hop = h;
            n.prevInVec = h == 0 ? -1 : std::int32_t(hops.size()) - 1;
            hops.push_back(n);
        }
    }

    // Hops are stored in (vector, hop) order, so ties on departure
    // break by index.
    departureOrder.resize(hops.size());
    std::iota(departureOrder.begin(), departureOrder.end(), 0);
    std::sort(departureOrder.begin(), departureOrder.end(),
              [this](std::int32_t a, std::int32_t b) {
                  return hops[a].depart != hops[b].depart
                             ? hops[a].depart < hops[b].depart
                             : a < b;
              });

    const auto &links = topo.links();
    std::vector<std::int32_t> lastDir(links.size() * 2, -1);
    std::vector<std::int32_t> lastIssue(topo.numTsps(), -1);
    for (std::int32_t i : departureOrder) {
        Hop &n = hops[i];
        const std::size_t dir =
            std::size_t(n.link) * 2 + (n.from == links[n.link].a ? 0 : 1);
        n.prevDir = std::exchange(lastDir[dir], i);
        n.prevIssue = std::exchange(lastIssue[n.from], i);
    }
}

SsnAnalysis
analyzeSchedule(const NetworkSchedule &sched, const Topology &topo)
{
    SsnAnalysis out;
    out.makespan = sched.makespan;
    if (sched.vectors.empty())
        return out;
    const ScheduleGraph graph(sched, topo);

    // Earliest cycle a hop could have departed, ignoring link and
    // issue-slot contention.
    auto minFeasible = [&](const ScheduleGraph::Hop &n) -> Cycle {
        if (n.prevInVec >= 0)
            return graph.hops[n.prevInVec].arrive + forwardCycles();
        return flowEarliest(sched, sched.vectors[n.vec].flow);
    };

    // Whole-schedule slack accounting.
    for (const ScheduleGraph::Hop &n : graph.hops) {
        const Cycle feasible = minFeasible(n);
        TSM_ASSERT(n.depart >= feasible,
                   "schedule violates its own feasibility bound");
        const Cycle wait = n.depart - feasible;
        out.hopSlack.add(double(wait));
        ++out.hopsTotal;
        if (wait > 0) {
            ++out.contendedHops;
            out.contentionFree = false;
        }
    }

    // Critical-path walk: start from the makespan-defining arrival (the
    // last hop of the first vector to arrive then) and follow the
    // binding constraint backwards.
    const auto last =
        std::find_if(graph.hops.begin(), graph.hops.end(),
                     [&](const ScheduleGraph::Hop &n) {
                         return n.arrive == sched.makespan;
                     });
    TSM_ASSERT(last != graph.hops.end(),
               "no vector arrives at the schedule's makespan");
    std::int32_t at = std::int32_t(last - graph.hops.begin());

    std::vector<CritHop> path; // built back-to-front
    for (std::uint64_t guard = 0; guard <= out.hopsTotal; ++guard) {
        const ScheduleGraph::Hop &n = graph.hops[at];
        const ScheduledVector &sv = sched.vectors[n.vec];
        const Cycle feasible = minFeasible(n);
        const Cycle wait = n.depart - feasible;

        CritHop ch;
        ch.link = n.link;
        ch.from = n.from;
        ch.flow = sv.flow;
        ch.seq = sv.seq;
        ch.depart = n.depart;
        ch.arrive = n.arrive;
        ch.wait = wait;
        ch.edge = wait > 0 ? CritEdge::Contention
                  : n.hop > 0 ? CritEdge::Pipeline
                              : CritEdge::Start;
        path.push_back(ch);

        // Find the predecessor the constraint points at: preferably
        // the window this hop waited behind on its link direction,
        // otherwise the chip's one-send-per-cycle issue slot.
        if (wait > 0) {
            if (n.prevDir >= 0 &&
                graph.hops[n.prevDir].depart + kScheduleWindowCycles >
                    feasible) {
                at = n.prevDir;
                continue;
            }
            if (n.prevIssue >= 0 &&
                graph.hops[n.prevIssue].depart + 1 == n.depart) {
                at = n.prevIssue;
                continue;
            }
        }
        if (n.prevInVec < 0)
            break;        // reached an injection point
        at = n.prevInVec; // forward-pipeline dependence on the prior hop
    }
    std::reverse(path.begin(), path.end());

    // Decompose the makespan by telescoping departures along the path.
    // Between consecutive path hops of the *same vector* the gap is
    // flight + forward + wait; between a hop and the blocker it jumped
    // to, the whole gap is contention wait.
    out.startCycle = path.front().depart - path.front().wait;
    out.waitCyclesTotal = path.front().wait;
    for (std::size_t i = 1; i < path.size(); ++i) {
        const CritHop &prev = path[i - 1];
        const CritHop &cur = path[i];
        const Cycle delta = cur.depart - prev.depart;
        const bool chained =
            prev.flow == cur.flow && prev.seq == cur.seq;
        if (chained) {
            const Cycle flight = prev.arrive - prev.depart;
            out.flightCyclesTotal += flight;
            out.forwardCyclesTotal += forwardCycles();
            out.waitCyclesTotal += delta - flight - forwardCycles();
        } else {
            out.waitCyclesTotal += delta;
        }
    }
    out.flightCyclesTotal += path.back().arrive - path.back().depart;

    out.criticalPath = std::move(path);
    out.criticalPathCycles = out.criticalPath.back().arrive;
    TSM_ASSERT(out.criticalPathCycles == out.makespan,
               "critical path must end at the makespan");
    TSM_ASSERT(out.startCycle + out.flightCyclesTotal +
                       out.forwardCyclesTotal + out.waitCyclesTotal ==
                   out.makespan,
               "makespan decomposition must be exact");

    out.predictedCompletionCycles = out.makespan + kRxMarginCycles;
    return out;
}

} // namespace tsm
