/**
 * @file
 * Host-profile viewer: reads the tsm-hostprof-v1 files written by the
 * bench binaries' --hostprof flag and renders where the simulator's
 * own wall-clock time went — top event kinds by wall time, queue
 * telemetry, the queue-depth sparkline, and the sim-rate trend over
 * the run's wall-clock windows.
 *
 *   tsm_hotspot [--top=N] HOSTPROF.json...
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/version.hh"
#include "hostprof/hostprof.hh"
#include "prof/report.hh"

int
main(int argc, char **argv)
{
    unsigned top = 8;
    bool version = false;
    tsm::CliParser cli("tsm_hotspot");
    cli.addValue("--top", &top, "event kinds shown, hottest first");
    cli.allowPositional();
    cli.addFlag("--version", &version,
                "print the tool name and supported schemas");
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s", tsm::toolVersionLine("tsm_hotspot",
            {tsm::kHostprofSchema}).c_str());
        return 0;
    }
    if (argc < 2) {
        std::fprintf(stderr, "tsm_hotspot: no hostprof files given\n%s",
                     cli.usage().c_str());
        return 2;
    }

    int failures = 0;
    for (int i = 1; i < argc; ++i) {
        const char *path = argv[i];
        std::string error;
        const tsm::Json doc =
            tsm::readDocument(path, tsm::kHostprofSchema, &error);
        if (doc.isNull()) {
            std::fprintf(stderr, "tsm_hotspot: %s\n", error.c_str());
            ++failures;
            continue;
        }
        if (i > 1)
            std::printf("\n");
        std::printf("%s", tsm::renderHostprof(doc, top).c_str());
    }
    return failures == 0 ? 0 : 1;
}
