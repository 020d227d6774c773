/**
 * @file
 * Triage tool for contention attribution: reads the tsm-blame-v1
 * documents written by the bench binaries' --blame flag (SSN path)
 * or fig08's --hw-blame flag (hardware-routed baseline) and renders
 * the blame summary — wait decomposition, top contended resources,
 * top blamed flow pairs, the compile-time schedule blame, and the
 * per-transfer blocked-by chains — followed by the windowed
 * contention heatmap tsm_top also understands.
 *
 *   tsm_blame [--top=N] [--cols=N] [--links=N] [--check] BLAME.json...
 *
 * --check verifies the exactness invariants instead of rendering:
 * per-transfer and per-link blame shares must sum exactly to their
 * waits, link waits to the run total, and windowed cells to their
 * link's wait.
 *
 * Exit status: 0 ok, 1 invariant violation, 2 unreadable input.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/version.hh"
#include "prof/blame.hh"
#include "prof/report.hh"
#include "telemetry/contention.hh"

int
main(int argc, char **argv)
{
    unsigned top = 5;
    unsigned cols = 64;
    unsigned links = 12;
    bool check = false;
    bool version = false;
    tsm::CliParser cli("tsm_blame");
    cli.addValue("--top", &top,
                 "rows shown per section (links, pairs, chains)");
    cli.addValue("--cols", &cols, "heatmap width in columns");
    cli.addValue("--links", &links,
                 "links shown in the heatmap, most contended first");
    cli.addFlag("--check", &check,
                "verify the blame exactness invariants instead of "
                "rendering");
    cli.allowPositional();
    cli.addFlag("--version", &version,
                "print the tool name and supported schemas");
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s", tsm::toolVersionLine("tsm_blame",
            {tsm::kBlameSchema}).c_str());
        return 0;
    }
    if (argc < 2) {
        std::fprintf(stderr, "tsm_blame: no blame files given\n%s",
                     cli.usage().c_str());
        return 2;
    }

    int ioFailures = 0;
    int checkFailures = 0;
    for (int i = 1; i < argc; ++i) {
        const char *path = argv[i];
        std::string error;
        const tsm::Json blame =
            tsm::readDocument(path, tsm::kBlameSchema, &error);
        if (blame.isNull()) {
            std::fprintf(stderr, "tsm_blame: %s\n", error.c_str());
            ++ioFailures;
            continue;
        }
        if (check) {
            std::string why;
            if (tsm::checkBlameExactness(blame, &why)) {
                std::printf("%s: ok (shares sum exactly to waits)\n",
                            path);
            } else {
                std::printf("%s: FAIL\n%s", path, why.c_str());
                ++checkFailures;
            }
            continue;
        }
        if (i > 1)
            std::printf("\n");
        std::printf("%s", tsm::renderBlameSummary(blame, top).c_str());
        std::printf("\n%s",
                    tsm::renderContentionHeatmap(blame, cols, links)
                        .c_str());
    }
    if (ioFailures)
        return 2;
    return checkFailures ? 1 : 0;
}
