/**
 * @file
 * Concurrency triage tool: reads the tsm-parallel-v1 documents
 * written by the bench binaries' --lanes flag and renders the
 * concurrency summary — lane and phase totals, the projected
 * phase-barrier speedup-bound table, the events-per-phase ribbon, and
 * the busiest-lanes heatmap.
 *
 *   tsm_lanes [--top=N] [--cols=N] [--check] [--min-speedup=X]
 *             [--workers=W] LANES.json...
 *
 * --check verifies the reconciliation invariants instead of
 * rendering: per-kind lane totals and per-phase counts must each sum
 * exactly to the live event total, and the speedup bounds must be
 * >= 1, monotone in the worker count, and capped by the critical
 * path. --min-speedup=X additionally gates on the projected bound
 * for --workers (default 16) being at least X — the "the serial
 * engine leaves >= Xx on the table" assertion CI pins on the 256-chip
 * scenario.
 *
 * Exit status: 0 ok, 1 invariant violation or gate failure, 2
 * unreadable input.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/version.hh"
#include "prof/lanes.hh"
#include "prof/report.hh"

int
main(int argc, char **argv)
{
    unsigned top = 8;
    unsigned cols = 64;
    unsigned workers = 16;
    double minSpeedup = 0.0;
    bool check = false;
    bool version = false;
    tsm::CliParser cli("tsm_lanes");
    cli.addValue("--top", &top, "lanes shown in the heatmap");
    cli.addValue("--cols", &cols,
                 "ribbon/heatmap width in columns (phases are bucketed)");
    cli.addFlag("--check", &check,
                "verify the lane/phase reconciliation invariants "
                "instead of rendering");
    cli.addValue("--min-speedup", &minSpeedup,
                 "gate: projected bound for --workers must be >= X "
                 "(implies --check)");
    cli.addValue("--workers", &workers,
                 "worker-pool size the --min-speedup gate reads "
                 "(default 16)");
    cli.allowPositional();
    cli.addFlag("--version", &version,
                "print the tool name and supported schemas");
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s", tsm::toolVersionLine("tsm_lanes",
            {tsm::kLanesSchema}).c_str());
        return 0;
    }
    if (minSpeedup > 0.0)
        check = true;
    if (argc < 2) {
        std::fprintf(stderr, "tsm_lanes: no lanes files given\n%s",
                     cli.usage().c_str());
        return 2;
    }

    int ioFailures = 0;
    int checkFailures = 0;
    for (int i = 1; i < argc; ++i) {
        const char *path = argv[i];
        std::string error;
        const tsm::Json lanes =
            tsm::readDocument(path, tsm::kLanesSchema, &error);
        if (lanes.isNull()) {
            std::fprintf(stderr, "tsm_lanes: %s\n", error.c_str());
            ++ioFailures;
            continue;
        }
        if (check) {
            std::string why;
            bool ok = tsm::checkLanesInvariants(lanes, &why);
            if (ok && minSpeedup > 0.0) {
                double bound = -1.0;
                for (const tsm::Json &s : lanes["speedup"].items())
                    if (s["workers"].integer() ==
                        std::int64_t(workers))
                        bound = s["bound"].number();
                if (bound < 0.0) {
                    ok = false;
                    why += "no speedup entry for " +
                           std::to_string(workers) + " workers\n";
                } else if (bound < minSpeedup) {
                    ok = false;
                    why += "projected bound for " +
                           std::to_string(workers) + " workers is " +
                           std::to_string(bound) + " < required " +
                           std::to_string(minSpeedup) + "\n";
                }
            }
            if (ok) {
                std::printf("%s: ok (lane and phase counts reconcile "
                            "with the total)\n",
                            path);
            } else {
                std::printf("%s: FAIL\n%s", path, why.c_str());
                ++checkFailures;
            }
            continue;
        }
        if (i > 1)
            std::printf("\n");
        std::printf("%s", tsm::renderLanesSummary(lanes, top, cols)
                              .c_str());
    }
    if (ioFailures)
        return 2;
    return checkFailures ? 1 : 0;
}
