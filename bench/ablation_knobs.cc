/**
 * @file
 * Ablations of the design choices DESIGN.md calls out, beyond the
 * paper's own figures:
 *
 *  1. path-diversity cap of the SSN scheduler (1/2/4/8 paths);
 *  2. HAC aligner adjustment rate vs convergence time;
 *  3. baseline-router buffer depth vs contention latency — the
 *     hardware resource SSN deletes entirely;
 *  4. minimal-extra-hops allowance (0/1/2) vs makespan on incast.
 */

#include <cstdio>
#include <memory>

#include "baseline/hw_router.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "hostprof/hostprof.hh"
#include "runtime/machine.hh"
#include "ssn/scheduler.hh"
#include "sync/hac_aligner.hh"
#include "trace/session.hh"

using namespace tsm;

namespace {

void
pathCapAblation()
{
    std::printf("1. path-diversity cap (256 KB transfer inside the "
                "node):\n");
    const Topology topo = Topology::makeNode();
    Table table({"max paths", "makespan us", "speedup"});
    double base = 0.0;
    for (unsigned cap : {1u, 2u, 4u, 8u}) {
        SsnScheduler s(topo, {.maxExtraHops = 1, .maxPaths = cap});
        TensorTransfer t;
        t.flow = 1;
        t.src = 0;
        t.dst = 1;
        t.vectors = std::uint32_t(bytesToVectors(256 * kKiB));
        const auto sched = s.schedule({t});
        const double us = double(sched.makespan) / kCoreFreqHz * 1e6;
        if (cap == 1)
            base = us;
        table.addRow({Table::num(cap), Table::num(us, 2),
                      Table::num(base / us, 2) + "x"});
    }
    std::printf("%s\n", table.ascii().c_str());
}

void
hacRateAblation(HostProfiler *hp)
{
    std::printf("2. HAC adjustment rate vs convergence (child starts "
                "120 cycles off):\n");
    Table table({"max adjust/update", "epochs to converge"});
    for (int rate : {1, 2, 4, 8, 16, 32}) {
        Machine machine(SystemConfig{}); // one node of 8 TSPs
        EventQueue &eq = machine.eventq();
        eq.setHostProfiler(hp);
        TspChip &child = machine.chip(1);
        child.adjustHac(120);
        HacAlignerConfig cfg;
        cfg.maxAdjustPerUpdate = rate;
        HacAligner aligner(
            machine.chip(0), child, machine.topo().linksBetween(0, 1)[0],
            double(linkPropagationPs(LinkClass::IntraNode)) /
                kCorePeriodPs,
            cfg);
        aligner.start();
        // Step epoch by epoch until converged.
        unsigned epochs = 0;
        const Tick epoch_ps = Tick(kHacPeriodCycles * kCorePeriodPs);
        while (!aligner.converged(2) && epochs < 1000) {
            eq.runUntil(eq.now() + epoch_ps);
            ++epochs;
        }
        aligner.stop();
        eq.run();
        table.addRow({Table::num(rate), Table::num(epochs)});
    }
    std::printf("%s(faster steering converges sooner at the cost of "
                "larger per-epoch time steps)\n\n",
                table.ascii().c_str());
}

void
bufferDepthAblation(HostProfiler *hp)
{
    std::printf("3. baseline router buffer depth under incast (7 -> 1, "
                "ring node):\n");
    Table table({"queue depth", "p50 ns", "p99 ns"});
    for (unsigned depth : {1u, 2u, 4u, 8u, 16u}) {
        const Topology topo = Topology::makeNode(NodeWiring::TripleRing);
        EventQueue eq;
        eq.setHostProfiler(hp);
        HwRoutedNetwork hw(topo, eq, Rng(9),
                           {HwRouting::ObliviousMinimal, depth});
        for (TspId s = 1; s < 8; ++s)
            hw.inject(FlowId(s), s, 0, 64, 0);
        eq.run();
        table.addRow({Table::num(depth),
                      Table::num(hw.packetLatencyNs().percentile(0.5), 0),
                      Table::num(hw.packetLatencyNs().percentile(0.99),
                                 0)});
    }
    std::printf("%s(deeper buffers absorb bursts but stretch the tail "
                "— SSN needs neither)\n\n",
                table.ascii().c_str());
}

void
extraHopsAblation()
{
    std::printf("4. non-minimal allowance on 7->1 incast (64 vectors "
                "each):\n");
    Table table({"extra hops", "makespan us"});
    for (unsigned extra : {0u, 1u, 2u}) {
        const Topology topo = Topology::makeNode();
        SsnScheduler s(topo, {.maxExtraHops = extra, .maxPaths = 8});
        std::vector<TensorTransfer> transfers;
        for (TspId src = 1; src < 8; ++src) {
            TensorTransfer t;
            t.flow = FlowId(src);
            t.src = src;
            t.dst = 0;
            t.vectors = 64;
            transfers.push_back(t);
        }
        const auto sched = s.schedule(transfers);
        table.addRow({Table::num(extra),
                      Table::num(double(sched.makespan) / kCoreFreqHz *
                                     1e6,
                                 2)});
    }
    std::printf("%s(incast saturates the destination's links; detours "
                "cannot add capacity, so\nthe knob is ~neutral here — "
                "unlike the point-to-point case of Fig 10)\n",
                table.ascii().c_str());
}

void
vcAblation(HostProfiler *hp)
{
    std::printf("5. virtual channels on the ring torus (§4.4): every "
                "TSP sends 3 hops clockwise:\n");
    Table table({"VCs", "queue depth", "delivered", "stuck",
                 "outcome"});
    for (unsigned vcs : {1u, 2u}) {
        for (unsigned depth : {1u, 4u}) {
            const Topology ring = Topology::makeRing(8);
            EventQueue eq;
            eq.setHostProfiler(hp);
            HwConfig cfg;
            cfg.routing = HwRouting::DeterministicMinimal;
            cfg.queueDepth = depth;
            cfg.numVcs = vcs;
            HwRoutedNetwork hw(ring, eq, Rng(1), cfg);
            for (TspId s = 0; s < 8; ++s)
                hw.inject(FlowId(s + 1), s, (s + 3) % 8, 64, 0);
            eq.run();
            table.addRow({Table::num(vcs), Table::num(depth),
                          Table::num(hw.delivered()),
                          Table::num(hw.stuck()),
                          hw.stuck() ? "DEADLOCK" : "drained"});
        }
    }
    std::printf("%s(the hardware needs a second, dateline-switched VC "
                "to break the toroidal\ncycle; the software-scheduled "
                "network needs none — its windows are disjoint\nby "
                "construction)\n",
                table.ascii().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    TraceOptions opts;
    CliParser cli("ablation_knobs");
    opts.registerFlags(cli);
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));
    session.setRun("ablation_knobs", 0);

    std::printf("=== Ablations of DESIGN.md design choices ===\n\n");
    pathCapAblation();
    hacRateAblation(session.hostprof());
    bufferDepthAblation(session.hostprof());
    extraHopsAblation();
    std::printf("\n");
    vcAblation(session.hostprof());
    session.finish();
    return 0;
}
