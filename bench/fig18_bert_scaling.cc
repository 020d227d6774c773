/**
 * @file
 * Fig 18: BERT encoder stacks of 6/24/48/96 layers on 1/4/8/16 TSPs —
 * realized TOPs normalized to the single-TSP run scales linearly,
 * because each added TSP brings compute and C2C links together.
 *
 * The analytic table is the figure; the instrumented run (any trace
 * flag) executes a 256-TSP (32-node single-level dragonfly) staged
 * activation pipeline — the largest standard scenario in the tree and
 * the host-profiling baseline for fig18-class scale.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "scenario/runner.hh"
#include "workload/bert.hh"

using namespace tsm;

int
main(int argc, char **argv)
{
    TraceOptions opts;
    std::uint64_t seed = 1;
    double mbe = 0.0;
    std::string scenarioPath =
        TSM_SCENARIO_DIR "/fig18_bert_scaling_256.json";
    CliParser cli("fig18_bert_scaling");
    opts.registerFlags(cli);
    cli.addValue("--seed", &seed, "network RNG seed for the traced run");
    cli.addValue("--mbe", &mbe,
                 "injected FEC multi-bit error rate per vector");
    cli.addValue("--scenario", &scenarioPath,
                 "scenario file for the instrumented timeline");
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));

    // The scaling claim extended to system scale: 31 staged
    // activation handoffs between adjacent nodes of a 256-TSP
    // dragonfly, over a nearest-neighbor background — pipeline
    // parallelism where each stage boundary crosses a C2C link.
    if (session.active()) {
        const ScenarioRunResult run =
            runScenarioFile(session, scenarioPath, {seed, mbe});
        if (!run.error.empty()) {
            std::fprintf(stderr, "%s\n", run.error.c_str());
            return 2;
        }
        std::printf("traced scenario: %zu transfers (%zu background) on "
                    "%u links, makespan %llu cycles\n\n",
                    run.compiled.lowered.transfers.size(),
                    run.compiled.lowered.backgroundTransfers(),
                    unsigned(run.compiled.topo.links().size()),
                    (unsigned long long)run.compiled.schedule.makespan);
    }

    std::printf("=== Fig 18: BERT encoder scaling (6/24/48/96 encoders "
                "on 1/4/8/16 TSPs) ===\n\n");
    const TspCostModel cost;
    const BertConfig geometry = BertConfig::large();

    struct Point
    {
        unsigned encoders;
        unsigned tsps;
    };
    const Point points[] = {{6, 1}, {24, 4}, {48, 8}, {96, 16}};

    double tops1 = 0.0;
    Table table({"encoders", "TSPs", "realized TOPs", "normalized",
                 "ideal"});
    for (const auto &pt : points) {
        const auto est =
            estimateBert(geometry.withEncoders(pt.encoders), pt.tsps,
                         cost);
        if (pt.tsps == 1)
            tops1 = est.realizedTops;
        table.addRow({Table::num(pt.encoders), Table::num(pt.tsps),
                      Table::num(est.realizedTops, 1),
                      Table::num(est.realizedTops / tops1, 2) + "x",
                      Table::num(pt.tsps) + "x"});
    }
    std::printf("%s\n", table.ascii().c_str());
    std::printf("throughput scales with device count because every "
                "stage keeps 6 encoders\nand the boundary activations "
                "overlap with compute (paper Fig 18: linear).\n");
    session.finish();
    return 0;
}
