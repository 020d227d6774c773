/**
 * @file
 * Bench regression gate: compares two tsm-profile-v1 reports (or two
 * tsm-timeline-v1 documents) metric by metric against a relative
 * tolerance and exits 1 when any directional metric regressed beyond
 * it. CI diffs fresh reports against the checked-in BENCH_*.json
 * baselines, so a perf regression fails the build instead of
 * scrolling past in a log.
 *
 *   tsm_bench_diff [--tol=FRAC] BASELINE.json NEW.json
 *
 * Exit status: 0 within tolerance, 1 regression, 2 usage/IO error.
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/version.hh"
#include "hostprof/hostprof.hh"
#include "prof/blame.hh"
#include "prof/lanes.hh"
#include "prof/report.hh"
#include "prof/whatif.hh"
#include "telemetry/bench_diff.hh"
#include "telemetry/timeline.hh"

namespace {

bool
loadJson(const char *path, tsm::Json *doc)
{
    std::string error;
    *doc = tsm::readDocument(path, nullptr, &error);
    if (doc->isNull())
        std::fprintf(stderr, "tsm_bench_diff: %s\n", error.c_str());
    return !doc->isNull();
}

} // namespace

int
main(int argc, char **argv)
{
    double tol = 0.05;
    bool version = false;
    tsm::CliParser cli("tsm_bench_diff");
    cli.addValue("--tol", &tol,
                 "relative tolerance (0.05 = 5%) before a directional "
                 "metric gates");
    cli.allowPositional();
    cli.addFlag("--version", &version,
                "print the tool name and supported schemas");
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s",
                    tsm::toolVersionLine(
                        "tsm_bench_diff",
                        {tsm::kProfileSchema, tsm::kHostprofSchema,
                         tsm::kTimelineSchema, tsm::kBlameSchema,
                         tsm::kWhatIfSchema, tsm::kLanesSchema})
                        .c_str());
        return 0;
    }
    if (argc != 3) {
        std::fprintf(stderr,
                     "tsm_bench_diff: expected BASELINE.json NEW.json\n%s",
                     cli.usage().c_str());
        return 2;
    }

    tsm::Json base, next;
    if (!loadJson(argv[1], &base) || !loadJson(argv[2], &next))
        return 2;

    const tsm::DiffResult diff = tsm::diffReports(base, next, tol);
    std::printf("%s", tsm::renderDiff(diff).c_str());
    return diff.regressed ? 1 : 0;
}
