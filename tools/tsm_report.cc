/**
 * @file
 * Offline renderer for profile reports: reads BENCH_*.json files
 * written by the bench binaries' --report flag and prints the same
 * human-readable summary the binaries print live — per-chip
 * functional-unit utilization, top-k bottleneck links with queueing
 * percentiles, HAC telemetry, and the SSN critical-path breakdown.
 *
 *   tsm_report [--top=N] [--hostprof=FILE] [--blame=FILE] REPORT.json...
 *
 * With --hostprof=FILE (a tsm-hostprof-v1 document from the same
 * run), the summary's wall-clock/sim-rate footer is filled in;
 * without it the footer honestly reads "n/a".
 *
 * With --blame=FILE (a tsm-blame-v1 document from the same run), the
 * contention-attribution summary — wait decomposition, top blamed
 * flow pairs, blocked-by chains — is appended after the profile
 * summaries.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/version.hh"
#include "hostprof/hostprof.hh"
#include "prof/blame.hh"
#include "prof/report.hh"

int
main(int argc, char **argv)
{
    unsigned top = 5;
    std::string hostprofPath;
    std::string blamePath;
    bool version = false;
    tsm::CliParser cli("tsm_report");
    cli.addValue("--top", &top, "links shown in the bottleneck table");
    cli.addValue("--hostprof", &hostprofPath,
                 "companion tsm-hostprof-v1 file for the sim-rate footer");
    cli.addValue("--blame", &blamePath,
                 "companion tsm-blame-v1 file for the contention section");
    cli.allowPositional();
    cli.addFlag("--version", &version,
                "print the tool name and supported schemas");
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s", tsm::toolVersionLine("tsm_report",
            {tsm::kProfileSchema, tsm::kHostprofSchema, tsm::kBlameSchema}).c_str());
        return 0;
    }
    if (argc < 2) {
        std::fprintf(stderr, "tsm_report: no report files given\n%s",
                     cli.usage().c_str());
        return 2;
    }

    int failures = 0;
    // A companion document that fails to load is reported and
    // skipped; the reports still render without its footer.
    auto companion = [&failures](const std::string &path,
                                 const char *schema) {
        if (path.empty())
            return tsm::Json();
        std::string error;
        tsm::Json doc = tsm::readDocument(path, schema, &error);
        if (doc.isNull()) {
            std::fprintf(stderr, "tsm_report: %s\n", error.c_str());
            ++failures;
        }
        return doc;
    };
    const tsm::Json host = companion(hostprofPath, tsm::kHostprofSchema);
    const tsm::Json blame = companion(blamePath, tsm::kBlameSchema);
    for (int i = 1; i < argc; ++i) {
        const char *path = argv[i];
        std::string error;
        const tsm::Json report =
            tsm::readDocument(path, tsm::kProfileSchema, &error);
        if (report.isNull()) {
            std::fprintf(stderr, "tsm_report: %s\n", error.c_str());
            ++failures;
            continue;
        }
        if (i > 1)
            std::printf("\n");
        std::printf("%s",
                    tsm::renderProfileSummary(
                        report, top, host.isNull() ? nullptr : &host)
                        .c_str());
    }
    if (!blame.isNull())
        std::printf("\n%s", tsm::renderBlameSummary(blame, top).c_str());
    return failures == 0 ? 0 : 1;
}
