/**
 * @file
 * Fig 8 (and Fig 1's premise): the same contended traffic pattern on
 * (a) a conventional hardware-routed network — arbitration, queueing,
 * back-pressure, and therefore latency variance — and (b) the
 * software-scheduled network, where the compiler resolves the
 * contention and every vector lands at a precomputed cycle with zero
 * variance.
 *
 * Also reports the FEC-vs-retry ablation: with FEC, injected bit
 * errors leave delivery timing untouched.
 */

#include <cstdio>

#include "baseline/hw_router.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "net/network.hh"
#include "prof/report.hh"
#include "scenario/runner.hh"
#include "ssn/schedule_trace.hh"
#include "trace/session.hh"

using namespace tsm;

int
main(int argc, char **argv)
{
    // --trace=FILE / --metrics / --digest / --report=FILE instrument
    // the SSN execution phase below (schedule replay + chips +
    // network).
    TraceOptions opts;
    CliParser cli("fig08_ssn_vs_hw_contention");
    opts.registerFlags(cli);
    std::string hw_blame_path;
    std::uint64_t hw_seed = 5;
    std::string scenarioPath =
        TSM_SCENARIO_DIR "/fig08_ssn_vs_hw_contention.json";
    std::uint64_t seed = 6;
    cli.addValue("--hw-blame", &hw_blame_path,
                 "write the hardware-routed baseline's tsm-blame-v1 "
                 "(oblivious policy) to FILE");
    cli.addValue("--hw-seed", &hw_seed,
                 "seed of the hardware-routed baseline (default 5)");
    cli.addValue("--scenario", &scenarioPath,
                 "scenario file for the software-scheduled phase");
    cli.addValue("--seed", &seed,
                 "network RNG seed for the software-scheduled phase");
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));
    std::printf("=== Fig 8: routed-with-contention vs "
                "software-scheduled ===\n\n");
    // The paper's scenario: A and B both send to D, contending for
    // the shared link; here 4 contending flows inside the ring-wired
    // node so minimal routes share intermediate links.
    const Topology topo = Topology::makeNode(NodeWiring::TripleRing);
    const unsigned kVectors = 256;

    // (a) Conventional: dynamic arbitration -> latency variance.
    Table hw_table({"routing", "p1 ns", "p50 ns", "p99 ns",
                    "spread ns"});
    for (auto routing : {HwRouting::DeterministicMinimal,
                         HwRouting::ObliviousMinimal,
                         HwRouting::AdaptiveMinimal}) {
        EventQueue eq;
        // The host profiler spans all phases (runs accumulate): the
        // hardware-routed loops are where router_hop events come from.
        eq.setHostProfiler(session.hostprof());
        HwRoutedNetwork hw(topo, eq, Rng(hw_seed), {routing, 8});
        // Blame the seed-sensitive policy: with --hw-seed varied the
        // resulting document varies too — the contrast to the SSN
        // blame, which is byte-identical across seeds.
        HwBlameRecorder hw_blame;
        if (!hw_blame_path.empty() &&
            routing == HwRouting::ObliviousMinimal)
            hw.setBlame(&hw_blame);
        hw.inject(1, 0, 2, kVectors, 0);
        hw.inject(2, 1, 2, kVectors, 0);
        hw.inject(3, 3, 2, kVectors, 0);
        hw.inject(4, 4, 2, kVectors, 0);
        eq.run();
        if (!hw_blame_path.empty() &&
            routing == HwRouting::ObliviousMinimal) {
            std::string error;
            if (writeProfileReport(
                    hw_blame_path,
                    hw_blame.report("fig08_ssn_vs_hw_contention",
                                    hw_seed),
                    &error))
                std::printf("hw blame: wrote %s\n",
                            hw_blame_path.c_str());
            else
                std::fprintf(stderr, "hw blame: %s\n", error.c_str());
        }
        const auto &lat = hw.packetLatencyNs();
        const char *name =
            routing == HwRouting::DeterministicMinimal ? "deterministic"
            : routing == HwRouting::ObliviousMinimal   ? "oblivious"
                                                       : "adaptive";
        hw_table.addRow(
            {name, Table::num(lat.percentile(0.01), 0),
             Table::num(lat.percentile(0.50), 0),
             Table::num(lat.percentile(0.99), 0),
             Table::num(lat.percentile(0.99) - lat.percentile(0.01),
                        0)});
    }
    std::printf("hardware-routed baseline (per-packet network latency):"
                "\n%s\n",
                hw_table.ascii().c_str());

    // (b) SSN: the identical flows, described by the checked-in
    // scenario document and executed through the scenario runner (a
    // golden test pins the journal to the pre-port hand-built list).
    const ScenarioRunResult run =
        runScenarioFile(session, scenarioPath, {seed, {}});
    if (!run.error.empty()) {
        std::fprintf(stderr, "%s\n", run.error.c_str());
        return 2;
    }
    const auto report = validateSchedule(run.compiled.schedule, topo);
    std::printf("software-scheduled network:\n");
    std::printf("  schedule: %zu vectors, 0 conflicts (%s), makespan "
                "%.2f us\n",
                run.compiled.schedule.vectors.size(),
                report.ok ? "validated" : "BUG",
                double(run.compiled.schedule.makespan) / kCoreFreqHz * 1e6);
    std::printf("  arrival-time variance: 0 (every vector lands at its "
                "precomputed cycle;\n  the simulator panics on any "
                "deviation)\n\n");
    session.finish();
    std::printf("  executed: %llu flits delivered across %u links, all "
                "on schedule\n\n",
                (unsigned long long)run.flitsDelivered,
                unsigned(run.compiled.topo.links().size()));

    // FEC ablation (§4.5): errors do not perturb timing.
    EventQueue eq2;
    Network clean(topo, eq2, Rng(7));
    const LinkId l01 = topo.linksBetween(0, 1)[0];
    Flit probe;
    probe.flow = 1;
    const Tick t_clean = clean.transmit(0, l01, probe, 0);
    EventQueue eq3;
    Network noisy(topo, eq3, Rng(7));
    noisy.setErrorModel({.sbePerVector = 0.5, .mbePerVector = 0.1});
    const Tick t_noisy = noisy.transmit(0, l01, probe, 0);
    std::printf("FEC ablation: arrival with clean link %llu ps, with "
                "injected errors %llu ps\n(identical — a link-layer "
                "retry would have shifted it by a full round trip)\n",
                (unsigned long long)t_clean,
                (unsigned long long)t_noisy);
    return 0;
}
