/**
 * @file
 * Fig 16: realized bus bandwidth of an 8-way All-Reduce vs tensor
 * size — the TSP's synchronous, flag-free fabric vs the GPU
 * shared-memory baseline (raw and pin-normalized), plus the zoomed
 * small-message region and the §5.6 latency budget.
 */

#include <cstdio>

#include "baseline/sharedmem_allreduce.hh"
#include "collective/allreduce.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "scenario/runner.hh"

using namespace tsm;

namespace {

std::string
sizeLabel(Bytes bytes)
{
    if (bytes >= kMiB)
        return std::to_string(bytes / kMiB) + " MiB";
    return std::to_string(bytes / kKiB) + " KiB";
}

} // namespace

int
main(int argc, char **argv)
{
    TraceOptions opts;
    std::uint64_t seed = 1;
    double mbe = 0.0;
    CliParser cli("fig16_allreduce");
    opts.registerFlags(cli);
    cli.addValue("--seed", &seed, "network RNG seed for the traced run");
    cli.addValue("--mbe", &mbe,
                 "injected FEC multi-bit error rate per vector");
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));

    std::printf("=== Fig 16: 8-way All-Reduce realized bandwidth "
                "===\n\n");
    const Topology node = Topology::makeNode();
    HierarchicalAllReduce tsp(node);

    // The figure's tables are evaluated through the scheduler, so the
    // instrumented timeline is a representative stage-1 reduce-scatter
    // schedule (`scenarios/fig16_allreduce.json`: a 32 KiB tensor, the
    // largest all-to-all the stream-register allocator can lower
    // single-hop) — replayed as planned Ssn events AND executed on
    // chips, which is what gives the profiler a real simulated
    // timeline to attribute against the static analysis.
    if (session.active()) {
        const ScenarioRunResult run = runScenarioFile(
            session, TSM_SCENARIO_DIR "/fig16_allreduce.json", {seed, mbe});
        if (!run.error.empty()) {
            std::fprintf(stderr, "%s\n", run.error.c_str());
            return 2;
        }
    }
    const GpuAllReduceModel gpu;
    // The TSP exposes 7x12.5 GB/s of intra-node links; pin-normalize
    // the A100's 300 GB/s down to it (the paper's second A100 curve).
    const double tsp_pin = 7 * kC2cLinkBytesPerSec;

    Table table({"tensor", "TSP GB/s", "A100 GB/s", "A100 norm GB/s"});
    for (Bytes bytes = 4 * kKiB; bytes <= 1024 * kMiB; bytes *= 4) {
        // Exact vector-level schedule for small tensors, the
        // cross-validated analytic model beyond.
        const auto t = bytes <= 4 * kMiB ? tsp.scheduled(bytes)
                                         : tsp.analytic(bytes);
        const auto g = gpuRingAllReduce(gpu, bytes);
        const auto gn = gpuRingAllReduceNormalized(gpu, bytes, tsp_pin);
        table.addRow({sizeLabel(bytes),
                      Table::num(t.busBandwidthBytesPerSec / 1e9, 1),
                      Table::num(g.busBandwidthBytesPerSec / 1e9, 1),
                      Table::num(gn.busBandwidthBytesPerSec / 1e9, 1)});
    }
    std::printf("%s\n", table.ascii().c_str());

    std::printf("zoomed small-message region (fine-grained "
                "communication):\n");
    Table zoom({"tensor", "TSP us", "A100 us", "TSP advantage"});
    for (Bytes bytes = 1 * kKiB; bytes <= 256 * kKiB; bytes *= 4) {
        const auto t = tsp.scheduled(bytes);
        const auto g = gpuRingAllReduce(gpu, bytes);
        zoom.addRow({sizeLabel(bytes), Table::num(t.seconds * 1e6, 2),
                     Table::num(g.seconds * 1e6, 2),
                     Table::num(g.seconds / t.seconds, 1) + "x"});
    }
    std::printf("%s\n", zoom.ascii().c_str());
    std::printf("the mailbox flag+fence handshake the shared-memory "
                "model needs per step is\nexactly what the compiler's "
                "total ordering removes (paper §5.3): the TSP\ncurve "
                "saturates orders of magnitude earlier, and the "
                "pin-normalized A100\nmatches the TSP only at large "
                "tensors.\n\n");

    // §5.6: hierarchical all-reduce latency at system scale.
    const Topology system = Topology::makeSingleLevel(32);
    std::printf("256-TSP system: 3-stage hierarchical all-reduce, "
                "small-message latency %.2f us\n(paper: 722 ns x 3 hops "
                "~ 2.1 us)\n",
                HierarchicalAllReduce(system).smallMessageLatencySec() *
                    1e6);
    session.finish();
    return 0;
}
