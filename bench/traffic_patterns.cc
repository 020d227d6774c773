/**
 * @file
 * Extension bench (§5.6 theme): the standard synthetic traffic
 * patterns on an 8-TSP node and a 2-node system, comparing the SSN
 * schedule's completion against the dynamically routed baseline's —
 * including the baseline's latency spread, which SSN does not have.
 *
 * The patterns themselves are checked-in scenario files under
 * scenarios/traffic/; this binary is a thin loader over them.
 */

#include <cstdio>
#include <optional>
#include <string>

#include "baseline/hw_router.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "scenario/scenario.hh"
#include "trace/session.hh"
#include "workload/traffic_gen.hh"

using namespace tsm;

namespace {

bool
sweep(TraceSession &session, const std::string &dir, const char *prefix,
      const char *title)
{
    std::uint32_t vectors = 0;
    Table table({"pattern", "SSN us", "router us", "router p99-p1 ns"});
    for (TrafficPattern p : allTrafficPatterns()) {
        const std::string path = dir + "/" + prefix +
                                 trafficPatternName(p) + ".json";
        Scenario sc;
        std::string error;
        if (!loadScenarioFile(path, sc, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return false;
        }
        const std::optional<CompiledScenario> compiled =
            compileScenario(sc, &error);
        if (!compiled) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return false;
        }
        const Topology &topo = compiled->topo;
        const auto &transfers = compiled->lowered.transfers;
        const NetworkSchedule &sched = compiled->schedule;
        if (!sc.patterns.empty())
            vectors = sc.patterns.front().vectors;

        EventQueue eq;
        eq.setHostProfiler(session.hostprof());
        HwRoutedNetwork hw(topo, eq, Rng(sc.seed));
        for (const auto &t : transfers)
            hw.inject(t.flow, t.src, t.dst, t.vectors, 0);
        eq.run();
        Tick hw_done = 0;
        for (const auto &t : transfers)
            hw_done = std::max(hw_done, hw.flowCompletion(t.flow));
        const auto &lat = hw.packetLatencyNs();

        table.addRow(
            {trafficPatternName(p),
             Table::num(double(sched.makespan) / kCoreFreqHz * 1e6, 2),
             Table::num(psToUs(double(hw_done)), 2),
             Table::num(lat.percentile(0.99) - lat.percentile(0.01),
                        0)});
    }
    std::printf("%s (%u vectors per flow):\n", title, vectors);
    std::printf("%s\n", table.ascii().c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = TSM_SCENARIO_DIR "/traffic";
    TraceOptions opts;
    CliParser cli("traffic_patterns");
    opts.registerFlags(cli);
    cli.addValue("--scenario-dir", &dir,
                 "directory holding the traffic scenario files");
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));
    session.setRun("traffic_patterns", 0);

    std::printf("=== Synthetic traffic patterns: scheduled vs routed "
                "===\n\n");
    if (!sweep(session, dir, "node_", "8-TSP node"))
        return 2;
    if (!sweep(session, dir, "system2_", "2-node dragonfly (16 TSPs)"))
        return 2;
    session.finish();
    std::printf("SSN completion is comparable to (often better than) "
                "dynamic routing while\ncarrying zero per-packet "
                "latency variance; the router's p99-p1 spread grows\n"
                "with adversity (incast) — paper Figs 1/8's argument "
                "across the classic patterns.\n");
    return 0;
}
