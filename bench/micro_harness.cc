/**
 * @file
 * google-benchmark micro-benchmarks of the simulation harness itself:
 * event-queue throughput, network flit delivery, SSN scheduling rate,
 * and topology path enumeration — the costs that bound how large an
 * experiment the simulator can run.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "arch/chip.hh"
#include "common/cli.hh"
#include "net/network.hh"
#include "runtime/machine.hh"
#include "ssn/scheduler.hh"
#include "trace/session.hh"

namespace tsm {
namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (Tick t = 0; t < 10000; ++t)
            eq.schedule(t, [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_NetworkFlitDelivery(benchmark::State &state)
{
    const Topology topo = Topology::makeNode();
    for (auto _ : state) {
        EventQueue eq;
        Network net(topo, eq, Rng(1));
        const LinkId l = topo.linksBetween(0, 1)[0];
        const Tick ser = Tick(kVectorSerializationPs);
        for (unsigned i = 0; i < 1000; ++i)
            net.transmit(0, l, Flit{}, i * ser);
        eq.run();
        benchmark::DoNotOptimize(net.totalFlits());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_NetworkFlitDelivery);

void
BM_SsnScheduleTensor(benchmark::State &state)
{
    const Topology topo = Topology::makeNode();
    const auto vectors = std::uint32_t(state.range(0));
    for (auto _ : state) {
        SsnScheduler scheduler(topo);
        TensorTransfer t;
        t.flow = 1;
        t.src = 0;
        t.dst = 1;
        t.vectors = vectors;
        const auto sched = scheduler.schedule({t});
        benchmark::DoNotOptimize(sched.makespan);
    }
    state.SetItemsProcessed(state.iterations() * vectors);
}
BENCHMARK(BM_SsnScheduleTensor)->Arg(64)->Arg(512)->Arg(4096);

void
BM_TopologyPathEnumeration(benchmark::State &state)
{
    const Topology topo = Topology::makeSingleLevel(33); // 264 TSPs
    for (auto _ : state) {
        const auto paths = topo.paths(0, 263, 1, 16);
        benchmark::DoNotOptimize(paths.size());
    }
}
BENCHMARK(BM_TopologyPathEnumeration);

void
BM_ChipInstructionRate(benchmark::State &state)
{
    const Topology topo = Topology::makeNode();
    for (auto _ : state) {
        EventQueue eq;
        Network net(topo, eq, Rng(2));
        TspChip chip(0, net, DriftClock());
        Program p;
        for (int i = 0; i < 5000; ++i)
            p.emitNop(1);
        p.emitHalt();
        chip.load(std::move(p));
        chip.start(0);
        eq.run();
        benchmark::DoNotOptimize(chip.stats().instrsExecuted);
    }
    state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_ChipInstructionRate);

/**
 * With --trace/--metrics/--digest/--report/--journal the harness runs
 * one instrumented scenario instead of the benchmarks: a 4-flow
 * contended transfer scheduled by SSN and executed on chips, producing
 * events from the chip, network, SSN and (with --trace including it)
 * sim categories. `--seed` varies the network RNG; `--mbe` injects FEC
 * multi-bit errors at the given per-vector rate, which corrupts
 * payloads without perturbing timing — the canonical way to make two
 * same-seed journals diverge for the tsm_diverge walkthrough.
 */
int
runTracedScenario(TraceSession &session, std::uint64_t seed, double mbe)
{
    const Topology topo = Topology::makeNode();

    std::vector<TensorTransfer> transfers;
    for (unsigned f = 0; f < 4; ++f) {
        TensorTransfer t;
        t.flow = f + 1;
        t.src = TspId(f + 1);
        t.dst = 0;
        t.vectors = 32;
        transfers.push_back(t);
    }
    const auto compiled = compileTransfers(topo, transfers);
    Machine machine(compiled.value(), seed, mbe);
    machine.run(session.observers(), "micro_harness", session.hostprof());
    std::printf("traced scenario: %llu vectors delivered over %u links\n",
                (unsigned long long)machine.net().totalFlits(),
                unsigned(topo.links().size()));
    session.finish();
    return 0;
}

} // namespace
} // namespace tsm

int
main(int argc, char **argv)
{
    tsm::TraceOptions opts;
    std::uint64_t seed = 1;
    double mbe = 0.0;
    tsm::CliParser cli("micro_harness");
    opts.registerFlags(cli);
    cli.addValue("--seed", &seed, "network RNG seed for the scenario");
    cli.addValue("--mbe", &mbe,
                 "injected FEC multi-bit error rate per vector");
    // Everything else belongs to google-benchmark, which rejects what
    // it does not recognize itself.
    cli.allowPrefix("--benchmark");
    cli.allowPrefix("--v=");
    if (!cli.parse(argc, argv))
        return 2;
    tsm::TraceSession session(std::move(opts));
    if (!session.active()) {
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
    }
    return tsm::runTracedScenario(session, seed, mbe);
}
