/**
 * @file
 * Terminal heatmap viewer for windowed timelines: reads the
 * tsm-timeline-v1 files written by the bench binaries' --timeline
 * flag and renders the links x windows utilization heatmap, the
 * chips x windows issue-slot occupancy heatmap, and the
 * bottleneck-phase ribbon with its per-phase summary table.
 *
 *   tsm_top [--cols=N] [--links=N] [--chips=N] [--hostprof=FILE]
 *           TIMELINE.json...
 *
 * A tsm-blame-v1 document (from --blame) may be given in place of a
 * timeline: it renders as the links x windows contention heatmap —
 * where waits piled up instead of where flits flowed.
 *
 * With --hostprof=FILE (a tsm-hostprof-v1 document from the same
 * run), a wall-clock/sim-rate footer is appended; without it the
 * footer honestly reads "n/a".
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/version.hh"
#include "hostprof/hostprof.hh"
#include "prof/blame.hh"
#include "prof/report.hh"
#include "telemetry/contention.hh"
#include "telemetry/render.hh"
#include "telemetry/timeline.hh"

namespace {

/** Load a hostprof document; null Json (with stderr note) on failure. */
tsm::Json
loadHostprof(const std::string &path, const char *tool)
{
    std::string error;
    const tsm::Json doc =
        tsm::readDocument(path, tsm::kHostprofSchema, &error);
    if (doc.isNull())
        std::fprintf(stderr, "%s: %s\n", tool, error.c_str());
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    tsm::TopOptions opts;
    std::string hostprofPath;
    bool version = false;
    tsm::CliParser cli("tsm_top");
    cli.addValue("--cols", &opts.cols, "heatmap width in columns");
    cli.addValue("--links", &opts.maxLinks, "links shown, busiest first");
    cli.addValue("--chips", &opts.maxChips, "chips shown, busiest first");
    cli.addValue("--hostprof", &hostprofPath,
                 "companion tsm-hostprof-v1 file for the sim-rate footer");
    cli.allowPositional();
    cli.addFlag("--version", &version,
                "print the tool name and supported schemas");
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s", tsm::toolVersionLine("tsm_top",
            {tsm::kTimelineSchema, tsm::kBlameSchema, tsm::kHostprofSchema}).c_str());
        return 0;
    }
    if (argc < 2) {
        std::fprintf(stderr, "tsm_top: no timeline files given\n%s",
                     cli.usage().c_str());
        return 2;
    }

    int failures = 0;
    for (int i = 1; i < argc; ++i) {
        const char *path = argv[i];
        std::string error;
        const tsm::Json timeline = tsm::readDocument(path, nullptr, &error);
        if (timeline.isNull()) {
            std::fprintf(stderr, "tsm_top: %s\n", error.c_str());
            ++failures;
            continue;
        }
        const std::string schema =
            timeline.has("schema") &&
                    timeline["schema"].kind() == tsm::Json::Kind::String
                ? timeline["schema"].str()
                : "";
        if (schema == tsm::kBlameSchema) {
            if (i > 1)
                std::printf("\n");
            std::printf("%s",
                        tsm::renderContentionHeatmap(timeline, opts.cols,
                                                     opts.maxLinks)
                            .c_str());
            continue;
        }
        if (schema != tsm::kTimelineSchema) {
            std::fprintf(stderr, "tsm_top: %s: not a %s (or %s) "
                         "document\n",
                         path, tsm::kTimelineSchema, tsm::kBlameSchema);
            ++failures;
            continue;
        }
        if (i > 1)
            std::printf("\n");
        std::printf("%s", tsm::renderTimelineTop(timeline, opts).c_str());
    }
    tsm::Json host;
    if (!hostprofPath.empty()) {
        host = loadHostprof(hostprofPath, "tsm_top");
        if (host.isNull())
            ++failures;
    }
    std::printf("%s",
                tsm::renderHostRateLine(host.isNull() ? nullptr : &host)
                    .c_str());
    return failures == 0 ? 0 : 1;
}
