/**
 * @file
 * Fig 10: the benefit of deterministic non-minimal routing as message
 * size and path diversity vary, inside the 8-TSP fully-connected
 * node (1 minimal path, up to 7 non-minimal 2-hop paths per pair).
 * Benefit = latency(minimal only) / latency(spread).
 *
 * Includes the node-wiring ablation: the triple-ring torus node
 * trades all-pair connectivity for 3x nearest-neighbour bandwidth.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "scenario/runner.hh"
#include "ssn/scheduler.hh"
#include "ssn/spread.hh"
#include "trace/session.hh"

using namespace tsm;

namespace {

std::vector<PathChoice>
nodePaths(unsigned nonminimal)
{
    std::vector<PathChoice> paths;
    paths.push_back({{}, flightCycles(LinkClass::IntraNode)});
    for (unsigned p = 0; p < nonminimal; ++p)
        paths.push_back(
            {{}, 2 * flightCycles(LinkClass::IntraNode) + forwardCycles()});
    return paths;
}

} // namespace

int
main(int argc, char **argv)
{
    TraceOptions opts;
    std::uint64_t seed = 1;
    double mbe = 0.0;
    std::string scenarioPath =
        TSM_SCENARIO_DIR "/fig10_nonminimal_routing.json";
    CliParser cli("fig10_nonminimal_routing");
    opts.registerFlags(cli);
    cli.addValue("--seed", &seed, "network RNG seed for the traced run");
    cli.addValue("--mbe", &mbe,
                 "injected FEC multi-bit error rate per vector");
    cli.addValue("--scenario", &scenarioPath,
                 "scenario file for the instrumented timeline");
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));

    // The instrumented timeline is the figure's cross-check transfer —
    // the 64 KB spread across the full mesh's non-minimal paths — as
    // a checked-in scenario document; the speedup tables below stay
    // analytic.
    if (session.active()) {
        const ScenarioRunResult run =
            runScenarioFile(session, scenarioPath, {seed, mbe});
        if (!run.error.empty()) {
            std::fprintf(stderr, "%s\n", run.error.c_str());
            return 2;
        }
    }

    std::printf("=== Fig 10: benefit of non-minimal routing vs message "
                "size and path count ===\n\n");
    Table table({"message", "KB", "1 path", "3 paths", "5 paths",
                 "7 paths"});
    for (Bytes kb : {1ull, 2ull, 4ull, 8ull, 16ull, 32ull, 64ull, 128ull,
                     256ull, 512ull, 1024ull}) {
        const auto vectors = std::uint32_t(bytesToVectors(kb * kKiB));
        const Cycle minimal_only =
            pathCompletionCycles(vectors, nodePaths(0)[0].latencyCycles);
        std::vector<std::string> cells{std::to_string(kb) + " KB",
                                       Table::num(std::uint64_t(kb))};
        for (unsigned p : {1u, 3u, 5u, 7u}) {
            const auto plan = spreadVectors(vectors, nodePaths(p));
            cells.push_back(Table::num(
                double(minimal_only) / double(plan.completionCycles), 2));
        }
        table.addRow(std::move(cells));
    }
    std::printf("speedup over minimal-only routing:\n%s\n",
                table.ascii().c_str());
    std::printf("below ~8 KB there is no benefit (the detour costs more "
                "than the spread saves);\nbeyond it, more paths help "
                "more as messages grow (paper Fig 10).\n\n");

    // Cross-check with the full scheduler on the real topology.
    std::printf("scheduler cross-check (64 KB, TSP0 -> TSP1):\n");
    const Topology topo = Topology::makeNode();
    for (bool spread : {false, true}) {
        SsnScheduler s(topo, {.loadBalance = spread});
        TensorTransfer t;
        t.flow = 1;
        t.src = 0;
        t.dst = 1;
        t.vectors = std::uint32_t(bytesToVectors(64 * kKiB));
        const auto sched = s.schedule({t});
        std::printf("  %-13s makespan %6.2f us over %u path(s)\n",
                    spread ? "spread:" : "minimal only:",
                    double(sched.makespan) / kCoreFreqHz * 1e6,
                    sched.flows.at(1).pathsUsed);
    }

    // Node-wiring ablation (§4.4).
    std::printf("\nnode-wiring ablation (64 KB nearest-neighbour "
                "transfer):\n");
    for (auto wiring : {NodeWiring::FullMesh, NodeWiring::TripleRing}) {
        const Topology node = Topology::makeNode(wiring);
        SsnScheduler s(node, {.maxExtraHops = 1});
        TensorTransfer t;
        t.flow = 1;
        t.src = 0;
        t.dst = 1; // ring neighbour
        t.vectors = std::uint32_t(bytesToVectors(64 * kKiB));
        const auto sched = s.schedule({t});
        std::printf("  %-12s makespan %6.2f us (%u paths, %zu direct "
                    "links)\n",
                    wiring == NodeWiring::FullMesh ? "full mesh:"
                                                   : "triple ring:",
                    double(sched.makespan) / kCoreFreqHz * 1e6,
                    sched.flows.at(1).pathsUsed,
                    node.linksBetween(0, 1).size());
    }
    session.finish();
    return 0;
}
