/**
 * @file
 * Fig 14: the distributed [800 x 32576] x [32576 x 8192] matmul —
 * latency vs number of TSPs (left) and throughput/utilization vs
 * number of TSPs (right), decomposed as 8 column splits x 1..13 row
 * splits with row groups clustered per node.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "prof/report.hh"
#include "scenario/runner.hh"
#include "workload/matmul.hh"

using namespace tsm;

int
main(int argc, char **argv)
{
    TraceOptions opts;
    std::uint64_t seed = 1;
    double mbe = 0.0;
    std::string scenarioPath =
        TSM_SCENARIO_DIR "/fig14_distributed_matmul.json";
    CliParser cli("fig14_distributed_matmul");
    opts.registerFlags(cli);
    cli.addValue("--seed", &seed, "network RNG seed for the traced run");
    cli.addValue("--mbe", &mbe,
                 "injected FEC multi-bit error rate per vector");
    cli.addValue("--scenario", &scenarioPath,
                 "scenario file for the instrumented timeline");
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));

    std::printf("=== Fig 14: distributed [800x32576][32576x8192] fp16 "
                "matmul ===\n\n");

    // The instrumented timeline is the figure's dominant network
    // pattern: the row-split partial-sum reduction, a 7-way fan-in of
    // partial products onto the chip owning the output panel. On one
    // 8-TSP node that contends every inbound link of TSP 0 at once —
    // the traffic the utilization column decays under. The pattern
    // itself lives in the checked-in scenario file.
    if (session.active()) {
        const ScenarioRunResult run =
            runScenarioFile(session, scenarioPath, {seed, mbe});
        if (!run.error.empty()) {
            std::fprintf(stderr, "%s\n", run.error.c_str());
            return 2;
        }
        if (ProfileCollector *prof = session.profile())
            prof->addExtra("reduction_fan_in",
                           double(run.compiled.lowered.transfers.size()));
    }
    const TspCostModel cost;
    DistMatmulConfig cfg; // the paper's operation

    Table table({"TSPs", "latency us", "TFLOPs", "utilization %"});
    double first_latency = 0.0, last_latency = 0.0;
    for (unsigned r = 1; r <= 13; ++r) {
        cfg.rowSplits = r;
        const auto res = planDistributedMatmul(cfg, cost);
        table.addRow({Table::num(res.tsps),
                      Table::num(res.seconds * 1e6, 1),
                      Table::num(res.tflops, 0),
                      Table::num(res.utilization * 100, 1)});
        if (r == 1)
            first_latency = res.seconds;
        last_latency = res.seconds;
    }
    std::printf("%s\n", table.ascii().c_str());
    std::printf("latency falls %.1fx from 8 to 104 TSPs because each "
                "added TSP contributes\nboth ALUs and C2C links (paper "
                "Fig 14); utilization decays gently as the\nreduction "
                "traffic grows.\n",
                first_latency / last_latency);
    session.finish();
    return 0;
}
