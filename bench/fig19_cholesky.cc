/**
 * @file
 * Fig 19: Cholesky factorization across multiple TSPs — execution
 * time vs problem size for 1/2/4/8 chips, the strong-scaling
 * speedups, the realized TFLOPs anchors, and a numeric correctness
 * check of the paper's rsqrt-based column kernel.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "prof/report.hh"
#include "scenario/runner.hh"
#include "workload/cholesky.hh"

using namespace tsm;

int
main(int argc, char **argv)
{
    TraceOptions opts;
    std::uint64_t seed = 1;
    double mbe = 0.0;
    std::string scenarioPath = TSM_SCENARIO_DIR "/fig19_cholesky.json";
    CliParser cli("fig19_cholesky");
    opts.registerFlags(cli);
    cli.addValue("--seed", &seed, "network RNG seed for the traced run");
    cli.addValue("--mbe", &mbe,
                 "injected FEC multi-bit error rate per vector");
    cli.addValue("--scenario", &scenarioPath,
                 "scenario file for the instrumented timeline");
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));

    std::printf("=== Fig 19: Cholesky factorization on 1/2/4/8 TSPs "
                "===\n\n");

    // The instrumented timeline is the right-looking factorization's
    // panel broadcast: after each column panel is factored, the owner
    // broadcasts it to the other chips for the trailing update. Three
    // successive rounds rotate the owner (0, 1, 2) and shrink the
    // panel, so the timeline shows repeating network bursts separated
    // by owner-compute gaps — the serial fraction §5.5 blames for the
    // saturating speedups.
    if (session.active()) {
        const ScenarioRunResult run =
            runScenarioFile(session, scenarioPath, {seed, mbe});
        if (!run.error.empty()) {
            std::fprintf(stderr, "%s\n", run.error.c_str());
            return 2;
        }
        if (ProfileCollector *prof = session.profile())
            prof->addExtra("broadcast_rounds", 3.0);
    }

    // (c) execution time vs problem size.
    Table table({"p", "1 TSP ms", "2 TSPs ms", "4 TSPs ms",
                 "8 TSPs ms"});
    for (std::uint64_t p : {2000ull, 4000ull, 8000ull, 16000ull,
                            32000ull}) {
        std::vector<std::string> cells{Table::num(p)};
        for (unsigned d : {1u, 2u, 4u, 8u})
            cells.push_back(
                Table::num(choleskyEstimate(p, d).seconds * 1e3, 1));
        table.addRow(std::move(cells));
    }
    std::printf("%s\n", table.ascii().c_str());

    // Strong scaling at the calibration point.
    const std::uint64_t p = 16000;
    const double t1 = choleskyEstimate(p, 1).seconds;
    std::printf("strong scaling at p=%llu: %.2fx / %.2fx / %.2fx on "
                "2/4/8 TSPs (paper: 1.2/1.4/1.5)\n",
                (unsigned long long)p,
                t1 / choleskyEstimate(p, 2).seconds,
                t1 / choleskyEstimate(p, 4).seconds,
                t1 / choleskyEstimate(p, 8).seconds);
    std::printf("realized throughput: %.1f TFLOPs on 4 TSPs, %.1f "
                "TFLOPs on 8 TSPs (paper: 14.9 / 22.4)\n",
                choleskyEstimate(p, 4).tflops,
                choleskyEstimate(p, 8).tflops);
    std::printf("the loop-carried vector-matrix dependence keeps the "
                "serial fraction high,\nwhich is why speedups saturate "
                "near 1.5x (paper §5.5).\n\n");

    // Numeric kernel check: factor a random SPD matrix with the
    // fast-rsqrt column pipeline and measure the residual.
    const unsigned n = 64;
    Rng rng(19);
    std::vector<float> b(std::size_t(n) * n);
    for (auto &x : b)
        x = float(rng.uniform(-1.0, 1.0));
    std::vector<float> a(std::size_t(n) * n, 0.0f);
    for (unsigned r = 0; r < n; ++r)
        for (unsigned c = 0; c < n; ++c) {
            for (unsigned k = 0; k < n; ++k)
                a[r * n + c] += b[r * n + k] * b[c * n + k];
            if (r == c)
                a[r * n + c] += float(n);
        }
    const auto original = a;
    const bool ok = choleskyFactor(a, n);
    std::printf("numeric kernel: %ux%u SPD factorization %s, residual "
                "max|A - L Lt| = %.3e\n",
                n, n, ok ? "succeeded" : "FAILED",
                double(choleskyResidual(original, a, n)));
    session.finish();
    return ok ? 0 : 1;
}
