/**
 * @file
 * What-if triage tool: reads the tsm-whatif-v1 documents written by
 * the bench binaries' --whatif flag and renders the ranked lever
 * table — the counterfactual perturbations ("link 3 2x faster",
 * "flow 5 removed") ordered by projected end-to-end makespan delta.
 *
 *   tsm_whatif [--top=N] WHATIF.json...
 *
 * The render path always verifies the document's structural
 * invariants (checkWhatIfInvariants) first, so a malformed ranking
 * can never be rendered as if it were sound.
 *
 * --check=SCENARIO.json switches to validation mode: the scenario is
 * compiled once, the what-if engine's projections are
 * recomputed, and the top-N counterfactuals are *re-simulated* on a
 * network with the actually-perturbed wire timing. Three gates:
 *
 *   A  identity — recomputing the constraint graph with unchanged
 *      timing reproduces every departure/arrival cycle exactly
 *   B  baseline — simulating the unperturbed schedule lands on its
 *      static completion cycle exactly (gap == 0)
 *   C  counterfactuals — each of the top N levers, materialized as a
 *      perturbed schedule and simulated with the perturbed physics,
 *      lands on its own static completion exactly (gap == 0)
 *
 *   tsm_whatif --check=SCENARIO.json [--top=N] [--factor=K] [--seed=S]
 *
 * Exit status: 0 ok, 1 gate or invariant failure, 2 unreadable input.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/version.hh"
#include "prof/whatif.hh"
#include "prof/report.hh"
#include "runtime/counterfactual.hh"
#include "scenario/scenario.hh"

namespace {

int
runCheck(const std::string &path, unsigned top, double factor,
         std::uint64_t seed, bool haveSeed)
{
    tsm::Scenario scenario;
    std::string error;
    if (!tsm::loadScenarioFile(path, scenario, &error)) {
        std::fprintf(stderr, "tsm_whatif: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    if (!haveSeed)
        seed = scenario.seed;

    const std::optional<tsm::CompiledScenario> compiled =
        tsm::compileScenario(scenario, &error);
    if (!compiled) {
        std::fprintf(stderr, "tsm_whatif: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    const tsm::Topology &topo = compiled->topo;
    const tsm::NetworkSchedule &sched = compiled->schedule;
    tsm::WhatIfEngine engine(sched, topo);

    std::printf("%s: %zu flows, %zu vectors, makespan %llu cycles\n",
                scenario.name.c_str(), compiled->lowered.transfers.size(),
                sched.vectors.size(),
                (unsigned long long)sched.makespan);

    int failures = 0;

    std::string why;
    if (engine.identityExact(&why)) {
        std::printf("  identity: ok (recomputation reproduces every "
                    "hop cycle)\n");
    } else {
        std::printf("  identity: FAIL\n%s", why.c_str());
        ++failures;
    }

    // Gate B: the unperturbed schedule, via the same lowering and
    // simulation path every counterfactual takes.
    {
        tsm::Perturbation identity;
        identity.kind = tsm::LeverKind::HacDrift;
        tsm::WhatIfCounterfactual base = engine.rebuild(identity);
        tsm::CounterfactualRun run;
        if (!tsm::runCounterfactual(topo, base, seed, &run, &error)) {
            std::printf("  baseline: FAIL (%s)\n", error.c_str());
            ++failures;
        } else if (run.gapCycles != 0) {
            std::printf("  baseline: FAIL (static %llu, simulated "
                        "%llu, gap %+lld)\n",
                        (unsigned long long)run.staticCompletionCycles,
                        (unsigned long long)run.simulatedCompletionCycles,
                        (long long)run.gapCycles);
            ++failures;
        } else {
            std::printf("  baseline: ok (simulated completion %llu == "
                        "static, gap 0)\n",
                        (unsigned long long)run.simulatedCompletionCycles);
        }
    }

    // Gate C: the top-N ranked levers, re-simulated with perturbed
    // physics. hac_drift projects observed-vs-static drift, not a
    // schedule change, so it has nothing to re-simulate.
    std::vector<tsm::WhatIfProjection> ranked =
        tsm::rankedLevers(engine, factor);
    unsigned checked = 0;
    for (const tsm::WhatIfProjection &proj : ranked) {
        if (checked >= top)
            break;
        if (proj.lever.kind == tsm::LeverKind::HacDrift)
            continue;
        ++checked;
        tsm::WhatIfCounterfactual cf = engine.rebuild(proj.lever);
        tsm::CounterfactualRun run;
        if (!tsm::runCounterfactual(topo, cf, seed, &run, &error)) {
            std::printf("  %-28s FAIL (%s)\n",
                        proj.lever.label().c_str(), error.c_str());
            ++failures;
            continue;
        }
        if (run.gapCycles != 0) {
            std::printf("  %-28s FAIL (projected makespan %llu, "
                        "static %llu, simulated %llu, gap %+lld)\n",
                        proj.lever.label().c_str(),
                        (unsigned long long)proj.projectedMakespan,
                        (unsigned long long)run.staticCompletionCycles,
                        (unsigned long long)run.simulatedCompletionCycles,
                        (long long)run.gapCycles);
            ++failures;
            continue;
        }
        std::printf("  %-28s ok (projected delta %+lld cycles, "
                    "simulated completion %llu == static, gap 0)\n",
                    proj.lever.label().c_str(),
                    (long long)proj.deltaCycles,
                    (unsigned long long)run.simulatedCompletionCycles);
    }
    if (checked == 0)
        std::printf("  (no re-simulatable levers ranked)\n");

    if (failures) {
        std::printf("%s: FAIL (%d gate%s)\n", path.c_str(), failures,
                    failures == 1 ? "" : "s");
        return 1;
    }
    std::printf("%s: ok (%u counterfactual%s re-simulated, all gaps "
                "0)\n",
                path.c_str(), checked, checked == 1 ? "" : "s");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned top = 0;
    double factor = 2.0;
    std::uint64_t seed = 0;
    std::string checkPath;
    bool version = false;
    tsm::CliParser cli("tsm_whatif");
    cli.addValue("--top", &top,
                 "levers shown (render) or re-simulated (--check); "
                 "default 10 render, 3 check");
    cli.addValue("--check", &checkPath,
                 "schedule SCENARIO.json, recompute the lever "
                 "projections and re-simulate the top levers with "
                 "perturbed physics, gating gap == 0");
    cli.addValue("--factor", &factor,
                 "lever speedup factor for --check (default 2)");
    cli.addValue("--seed", &seed,
                 "network seed for --check; 0 (default) uses the "
                 "scenario's own seed");
    cli.addFlag("--version", &version,
                "print tool name and supported schemas");
    cli.allowPositional();
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s",
                    tsm::toolVersionLine(
                        "tsm_whatif",
                        {tsm::kWhatIfSchema, tsm::kScenarioSchema})
                        .c_str());
        return 0;
    }

    if (!checkPath.empty())
        return runCheck(checkPath, top ? top : 3, factor, seed,
                        seed != 0);

    if (argc < 2) {
        std::fprintf(stderr, "tsm_whatif: no what-if files given\n%s",
                     cli.usage().c_str());
        return 2;
    }

    int ioFailures = 0;
    int checkFailures = 0;
    for (int i = 1; i < argc; ++i) {
        const char *path = argv[i];
        std::string error;
        const tsm::Json doc =
            tsm::readDocument(path, tsm::kWhatIfSchema, &error);
        if (doc.isNull()) {
            std::fprintf(stderr, "tsm_whatif: %s\n", error.c_str());
            ++ioFailures;
            continue;
        }
        std::string why;
        if (!tsm::checkWhatIfInvariants(doc, &why)) {
            std::printf("%s: FAIL\n%s", path, why.c_str());
            ++checkFailures;
            continue;
        }
        if (i > 1)
            std::printf("\n");
        std::printf("%s",
                    tsm::renderWhatIfSummary(doc, top ? top : 10)
                        .c_str());
    }
    if (ioFailures)
        return 2;
    return checkFailures ? 1 : 0;
}
