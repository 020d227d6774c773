#include "ssn/spread.hh"

#include <algorithm>

#include "common/log.hh"
#include "ssn/transfer.hh"

namespace tsm {

unsigned
SpreadPlan::pathsUsed() const
{
    unsigned used = 0;
    for (auto v : vectorsPerPath)
        used += v > 0;
    return used;
}

Cycle
pathCompletionCycles(std::uint32_t vectors, Cycle path_latency, Cycle window)
{
    if (vectors == 0)
        return 0;
    return Cycle(vectors - 1) * window + path_latency;
}

SpreadPlan
spreadVectors(std::uint32_t vectors, const std::vector<PathChoice> &paths,
              Cycle window)
{
    TSM_ASSERT(!paths.empty(), "no paths to spread over");
    SpreadPlan plan;
    plan.vectorsPerPath.assign(paths.size(), 0);

    // Water-filling: assign each vector to the path that would finish
    // it earliest. Equivalent to the optimal split for the pipelined
    // completion model, and deterministic (ties break to the lower
    // path index, i.e. the shorter path).
    std::vector<Cycle> finish(paths.size());
    for (std::size_t p = 0; p < paths.size(); ++p)
        finish[p] = paths[p].latencyCycles; // finish if given 1 vector

    for (std::uint32_t v = 0; v < vectors; ++v) {
        std::size_t best = 0;
        for (std::size_t p = 1; p < paths.size(); ++p)
            if (finish[p] < finish[best])
                best = p;
        ++plan.vectorsPerPath[best];
        plan.completionCycles = std::max(plan.completionCycles,
                                         finish[best]);
        finish[best] += window;
    }
    return plan;
}

std::vector<PathChoice>
toPathChoices(const Topology &topo, std::vector<Topology::Path> ps)
{
    std::vector<PathChoice> out;
    out.reserve(ps.size());
    for (auto &path : ps) {
        PathChoice pc;
        Cycle lat = 0;
        for (std::size_t h = 0; h < path.size(); ++h) {
            lat += flightCycles(topo.links()[path[h]].cls);
            if (h + 1 < path.size())
                lat += forwardCycles(); // store-and-forward pipeline
        }
        pc.path = std::move(path);
        pc.latencyCycles = lat;
        out.push_back(std::move(pc));
    }
    std::sort(out.begin(), out.end(),
              [](const PathChoice &a, const PathChoice &b) {
                  if (a.latencyCycles != b.latencyCycles)
                      return a.latencyCycles < b.latencyCycles;
                  return a.path < b.path;
              });
    return out;
}

} // namespace tsm
