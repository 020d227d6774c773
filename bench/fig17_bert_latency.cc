/**
 * @file
 * Fig 17: the BERT-Large latency histogram across 24,240 runs on 4
 * TSPs (5 us bins): a tight, bounded distribution whose only variance
 * comes from the PCIe host legs, with the compiler's estimate within
 * 2% of measurement. Includes the BERT-Base-on-1-TSP check.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table.hh"
#include "prof/report.hh"
#include "scenario/runner.hh"
#include "workload/bert.hh"

using namespace tsm;

int
main(int argc, char **argv)
{
    TraceOptions opts;
    std::uint64_t seed = 1;
    double mbe = 0.0;
    std::string scenarioPath = TSM_SCENARIO_DIR "/fig17_bert_latency.json";
    CliParser cli("fig17_bert_latency");
    opts.registerFlags(cli);
    cli.addValue("--seed", &seed, "network RNG seed for the traced run");
    cli.addValue("--mbe", &mbe,
                 "injected FEC multi-bit error rate per vector");
    cli.addValue("--scenario", &scenarioPath,
                 "scenario file for the instrumented timeline");
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));

    std::printf("=== Fig 17: BERT-Large latency across 24,240 runs "
                "(4 TSPs) ===\n\n");

    // The instrumented timeline is the model-parallel activation
    // pipeline the figure measures: encoder shards on TSPs 0..3 hand
    // activations down the chain, each hop gated on the producing
    // shard's compute (staggered `earliest`). The stagger makes the
    // timeline alternate compute-bound and network-bound windows —
    // pipeline bubbles show up as idle regimes.
    if (session.active()) {
        const ScenarioRunResult run =
            runScenarioFile(session, scenarioPath, {seed, mbe});
        if (!run.error.empty()) {
            std::fprintf(stderr, "%s\n", run.error.c_str());
            return 2;
        }
        if (ProfileCollector *prof = session.profile())
            prof->addExtra("pipeline_stages", 4.0);
    }
    const TspCostModel cost;
    const auto est = estimateBert(BertConfig::large(), 4, cost);
    const auto samples = simulateBertRuns(est, 24240, Rng(17));

    const double p50 = samples.percentile(0.50) * 1e6;
    const double p99 = samples.percentile(0.99) * 1e6;
    const double pmax = samples.percentile(1.0) * 1e6;

    // 5 us bins, as the paper plots.
    const double lo = std::floor((p50 - 25.0) / 5.0) * 5.0;
    Histogram hist(lo, lo + 90.0, 18);
    for (double s : samples.samples())
        hist.add(s * 1e6);
    std::printf("%s\n", hist.ascii(50).c_str());

    Table table({"metric", "measured", "paper"});
    table.addRow({"runs", Table::num(std::uint64_t(samples.count())),
                  "24240"});
    table.addRow({"p99 - p50 (us)", Table::num(p99 - p50, 1),
                  "<= ~45 (1225 vs ~1180)"});
    table.addRow({"max - p50 (us)", Table::num(pmax - p50, 1),
                  "<= ~120 (1300 vs ~1180)"});
    table.addRow({"compiler estimate error",
                  Table::num((est.totalSec * 1e6 / p50 - 1.0) * 100, 2) +
                      "%",
                  "within 2%"});
    std::printf("%s\n", table.ascii().c_str());
    std::printf("absolute latency: measured p50 %.0f us vs the paper's "
                "~1180 us — our cost model\nruns the encoder stack "
                "~1.8x slower than Groq's binary; the distribution "
                "shape,\nboundedness, and estimate accuracy are the "
                "reproduced claims.\n\n",
                p50);

    const auto base = estimateBert(BertConfig::base(), 1, cost);
    const auto base_samples = simulateBertRuns(base, 5000, Rng(18));
    std::printf("BERT-Base on 1 TSP: estimate %.0f us vs measured p50 "
                "%.0f us (%.2f%% apart)\n",
                base.totalSec * 1e6,
                base_samples.percentile(0.5) * 1e6,
                (base.totalSec / base_samples.percentile(0.5) - 1.0) *
                    100);
    session.finish();
    return 0;
}
