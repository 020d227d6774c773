/**
 * @file
 * tsm_fuzz — seeded scenario fuzzer asserting the determinism
 * invariants the paper's software-scheduled network promises.
 *
 * For every seed in [--seed, --seed + --cases) it generates a random
 * valid scenario (src/scenario/generator.hh) and checks:
 *
 *   roundtrip  parse -> serialize -> parse is byte-stable: the
 *              canonical document re-parses to the same canonical
 *              document;
 *   journal    two executions of the scenario produce byte-identical
 *              tsm-journal-v1 streams — the same-seed reproducibility
 *              claim, per generated scenario instead of per bench;
 *   waterfall  every transfer's serialize + flight + forward + wait
 *              stages sum *exactly* to its observed latency, every
 *              span closes, and the span count equals the vectors
 *              moved;
 *   blame      the tsm-blame-v1 contention attribution is exact (per
 *              transfer and per link the blamed shares sum exactly to
 *              the waits), its per-link waits reconcile with the
 *              profiler's queue-delay account, and two executions
 *              produce byte-identical blame documents;
 *   lanes      the tsm-parallel-v1 concurrency profile reconciles
 *              exactly (per-kind lane totals and per-phase counts
 *              each sum to the live event total, speedup bounds are
 *              >= 1, monotone, and capped by the critical path) and
 *              two executions produce byte-identical lanes documents.
 *
 * On a failure the scenario is greedily shrunk (re-testing candidate
 * simplifications until none still fails) and the minimal reproducer
 * is saved as a scenario JSON file: re-run it with
 * `tsm_fuzz --replay=FILE`, or feed the two journals of a journal
 * failure to tools/tsm_diverge for first-divergence triage.
 *
 * Exit codes: 0 all cases pass, 1 any invariant failed (reproducer
 * saved), 2 usage error.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/version.hh"
#include "hostprof/hostprof.hh"
#include "prof/report.hh"
#include "scenario/generator.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

using namespace tsm;

namespace {

struct Invariants
{
    bool roundtrip = true;
    bool journal = true;
    bool waterfall = true;
    bool blame = true;
    bool lanes = true;
};

/**
 * First failing invariant's name, or nullptr when all hold. `hp`,
 * when given, profiles the first execution only — so the journal
 * invariant then also asserts that a profiled and an unprofiled run
 * produce byte-identical journals (hostprof must never perturb the
 * simulation).
 */
const char *
check(const Scenario &sc, const Invariants &which,
      HostProfiler *hp = nullptr)
{
    if (which.roundtrip) {
        const std::string text = dumpScenario(sc);
        Scenario reparsed;
        std::string error;
        if (!parseScenario(text, reparsed, &error))
            return "roundtrip";
        if (dumpScenario(reparsed) != text)
            return "roundtrip";
    }

    if (which.journal || which.waterfall || which.blame ||
        which.lanes) {
        const ScenarioExecution first = executeScenario(sc, {}, hp);
        if (!first.error.empty())
            return "compile";
        if (which.waterfall &&
            (!first.allSpansClosed() || !first.waterfallsExact()))
            return "waterfall";
        if (which.blame && !first.blameExact())
            return "blame";
        if (which.lanes && !first.lanesReconcile())
            return "lanes";
        if (which.journal || which.blame || which.lanes) {
            const ScenarioExecution second = executeScenario(sc);
            if (which.journal &&
                (first.journal.empty() ||
                 first.journal != second.journal))
                return "journal";
            // Same-seed blame must be byte-deterministic, like the
            // journal — shares and chains included, not just totals.
            if (which.blame &&
                (first.blameText.empty() ||
                 first.blameText != second.blameText))
                return "blame";
            // So must the concurrency profile — the speedup bounds
            // included, not just the event counts.
            if (which.lanes &&
                (first.lanesText.empty() ||
                 first.lanesText != second.lanesText))
                return "lanes";
        }
    }
    return nullptr;
}

/** Greedily shrink `sc` while `failed` still fails. */
Scenario
shrink(Scenario sc, const char *failed, const Invariants &which,
       unsigned *rounds)
{
    Invariants only;
    only.roundtrip = which.roundtrip &&
                     std::string(failed) == "roundtrip";
    only.journal = which.journal && std::string(failed) == "journal";
    only.waterfall = which.waterfall &&
                     std::string(failed) == "waterfall";
    only.blame = which.blame && std::string(failed) == "blame";
    only.lanes = which.lanes && std::string(failed) == "lanes";

    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        for (Scenario &candidate : shrinkCandidates(sc)) {
            const char *still = check(candidate, only);
            if (still && std::string(still) == failed) {
                sc = std::move(candidate);
                ++*rounds;
                shrunk = true;
                break;
            }
        }
    }
    return sc;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    unsigned cases = 100;
    FuzzConfig cfg;
    std::uint64_t maxVectors = cfg.maxVectors;
    std::vector<std::string> skip;
    std::string save = ".";
    std::string replay;
    std::string emit;
    std::string hostprofDir;
    bool keepGoing = false;
    bool quiet = false;
    bool stats = false;
    unsigned progress = 0;

    bool version = false;
    CliParser cli("tsm_fuzz");
    cli.addValue("--seed", &seed, "first generator seed (default 1)");
    cli.addValue("--cases", &cases,
                 "number of consecutive seeds to run (default 100)");
    cli.addValue("--max-flows", &cfg.maxFlows,
                 "explicit-flow bound per scenario (default 10)");
    cli.addValue("--max-vectors", &maxVectors,
                 "tensor-size bound in vectors (default 48)");
    cli.addList("--skip-invariant", &skip,
                "invariants to skip: "
                "roundtrip,journal,waterfall,blame,lanes");
    cli.addValue("--save", &save,
                 "directory for shrunk reproducers (default .)");
    cli.addValue("--replay", &replay,
                 "check one scenario file instead of generating");
    cli.addValue("--emit", &emit,
                 "write the scenario for --seed to FILE and exit");
    cli.addFlag("--keep-going", &keepGoing,
                "test every case even after a failure");
    cli.addFlag("--quiet", &quiet, "only report failures and totals");
    cli.addFlag("--stats", &stats,
                "profile each case's first execution and report its "
                "sim-rate");
    cli.addValue("--hostprof-dir", &hostprofDir,
                 "write one tsm-hostprof-v1 file per case to DIR "
                 "(implies --stats)");
    cli.addValue("--progress", &progress,
                 "heartbeat to stderr every N cases, for long CI runs "
                 "(0 = off)");
    cli.addFlag("--version", &version,
                "print the tool name and supported schemas");
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s", toolVersionLine("tsm_fuzz",
            {kScenarioSchema}).c_str());
        return 0;
    }
    cfg.maxVectors = std::uint32_t(maxVectors);
    if (!hostprofDir.empty())
        stats = true;

    Invariants which;
    for (const std::string &s : skip) {
        if (s == "roundtrip")
            which.roundtrip = false;
        else if (s == "journal")
            which.journal = false;
        else if (s == "waterfall")
            which.waterfall = false;
        else if (s == "blame")
            which.blame = false;
        else if (s == "lanes")
            which.lanes = false;
        else {
            std::fprintf(stderr,
                         "tsm_fuzz: unknown invariant \"%s\" (known: "
                         "roundtrip, journal, waterfall, blame, "
                         "lanes)\n",
                         s.c_str());
            return 2;
        }
    }
    if (!which.roundtrip && !which.journal && !which.waterfall &&
        !which.blame && !which.lanes) {
        std::fprintf(stderr,
                     "tsm_fuzz: every invariant skipped — nothing to "
                     "check\n");
        return 2;
    }

    if (!emit.empty()) {
        const Scenario sc = generateScenario(seed, cfg);
        std::string error;
        if (!saveScenarioFile(emit, sc, &error)) {
            std::fprintf(stderr, "tsm_fuzz: %s\n", error.c_str());
            return 2;
        }
        std::printf("wrote %s (seed %llu: %zu flows, %zu collectives, "
                    "%zu patterns)\n",
                    emit.c_str(), (unsigned long long)seed,
                    sc.flows.size(), sc.collectives.size(),
                    sc.patterns.size());
        return 0;
    }

    if (!replay.empty()) {
        Scenario sc;
        std::string error;
        if (!loadScenarioFile(replay, sc, &error)) {
            std::fprintf(stderr, "tsm_fuzz: %s\n", error.c_str());
            return 2;
        }
        const char *failed = check(sc, which);
        if (failed) {
            std::printf("%s: FAIL (%s invariant)\n", replay.c_str(),
                        failed);
            return 1;
        }
        std::printf("%s: ok\n", replay.c_str());
        return 0;
    }

    unsigned failures = 0;
    std::uint64_t totalEvents = 0;
    std::uint64_t totalWallNs = 0;
    std::uint64_t totalSimPs = 0;
    unsigned profiled = 0;
    for (unsigned i = 0; i < cases; ++i) {
        const std::uint64_t s = seed + i;
        if (progress > 0 && i % progress == 0) {
            // stderr so the heartbeat survives a redirected stdout and
            // shows up unbuffered in CI logs.
            std::fprintf(stderr,
                         "tsm_fuzz: case %u/%u (seed %llu), %u "
                         "failure%s so far\n",
                         i + 1, cases, (unsigned long long)s, failures,
                         failures == 1 ? "" : "s");
        }
        const Scenario sc = generateScenario(s, cfg);
        HostProfiler hp;
        const char *failed = check(sc, which, stats ? &hp : nullptr);
        if (stats && hp.events() > 0) {
            totalEvents += hp.events();
            totalWallNs += hp.wallNs();
            totalSimPs += hp.simPs();
            ++profiled;
            if (!hostprofDir.empty()) {
                const std::string path = hostprofDir + "/hostprof_seed" +
                                         std::to_string(s) + ".json";
                std::string error;
                if (!writeProfileReport(path, hp.report(), &error))
                    std::fprintf(stderr, "tsm_fuzz: %s\n", error.c_str());
            }
        }
        if (!failed) {
            if (!quiet) {
                std::printf("seed %llu: ok (%zu flows)",
                            (unsigned long long)s, sc.flows.size());
                if (stats && hp.wallNs() > 0)
                    std::printf(" — %llu events in %.2f ms, %.2fM "
                                "events/s, slowdown %.0fx",
                                (unsigned long long)hp.events(),
                                double(hp.wallNs()) / 1e6,
                                double(hp.events()) * 1e3 /
                                    double(hp.wallNs()),
                                hp.simPs() > 0
                                    ? double(hp.wallNs()) * 1e3 /
                                          double(hp.simPs())
                                    : 0.0);
                std::printf("\n");
            }
            continue;
        }

        ++failures;
        unsigned rounds = 0;
        const Scenario minimal = shrink(sc, failed, which, &rounds);
        const std::string path = save + "/tsm_fuzz_repro_seed" +
                                 std::to_string(s) + ".json";
        std::string error;
        if (!saveScenarioFile(path, minimal, &error))
            std::fprintf(stderr, "tsm_fuzz: %s\n", error.c_str());
        std::printf("seed %llu: FAIL (%s invariant) — shrunk %u "
                    "rounds to %zu flows, reproducer saved to %s\n",
                    (unsigned long long)s, failed, rounds,
                    minimal.flows.size(), path.c_str());
        if (!keepGoing)
            break;
    }

    std::printf("tsm_fuzz: %u case%s, %u failure%s\n",
                cases, cases == 1 ? "" : "s", failures,
                failures == 1 ? "" : "s");
    if (stats && totalWallNs > 0)
        std::printf("tsm_fuzz sim-rate: %u profiled case%s, %llu events "
                    "in %.2f ms — %.2fM events/s, mean slowdown %.0fx\n",
                    profiled, profiled == 1 ? "" : "s",
                    (unsigned long long)totalEvents,
                    double(totalWallNs) / 1e6,
                    double(totalEvents) * 1e3 / double(totalWallNs),
                    totalSimPs > 0 ? double(totalWallNs) * 1e3 /
                                         double(totalSimPs)
                                   : 0.0);
    return failures ? 1 : 0;
}
