/**
 * @file
 * Quickstart: build an 8-TSP node, schedule a tensor transfer with
 * the SSN compile-time scheduler, run it on the cycle-level
 * simulator, and verify that the simulation lands exactly where the
 * schedule said it would — the determinism the paper is about.
 *
 *   ./quickstart [--trace=FILE] [--metrics] [--digest] [--report=FILE]
 */

#include <cstdio>

#include "common/cli.hh"
#include "runtime/machine.hh"
#include "trace/session.hh"

using namespace tsm;

int
main(int argc, char **argv)
{
    TraceOptions opts;
    CliParser cli("quickstart");
    opts.registerFlags(cli);
    if (!cli.parse(argc, argv))
        return 2;
    TraceSession session(std::move(opts));
    // 1. The machine: one GroqNode-style chassis — 8 TSPs, fully
    //    connected by 28 C2C links (7 local ports each).
    const Topology topo = Topology::makeNode();
    std::printf("machine: %s\n", topo.describe().c_str());

    // 2. The work: move a 64 KiB tensor (205 vectors) from TSP 2 to
    //    TSP 5, starting at cycle 100.
    TensorTransfer transfer;
    transfer.flow = 1;
    transfer.src = 2;
    transfer.dst = 5;
    transfer.vectors = bytesToVectors(64 * kKiB);
    transfer.earliest = 100;

    // 3. Compile: the SSN scheduler resolves every serialization
    //    window on every link at compile time — "scheduled, not
    //    routed". Large tensors spread over non-minimal paths. The
    //    schedule is then lowered to per-chip programs (Send/Recv
    //    with absolute issue cycles) depositing at address 0.
    std::unordered_map<FlowId, LocalAddr> dst;
    dst[1] = LocalAddr::unflatten(0);
    const auto compiled = compileTransfers(topo, {transfer}, {}, nullptr, dst);
    const NetworkSchedule &schedule = compiled.value().schedule;
    const auto &flow = schedule.flows.at(1);
    std::printf("scheduled %u vectors over %u paths; "
                "injection at cycle %llu, last arrival at cycle %llu\n",
                flow.vectors, flow.pathsUsed,
                (unsigned long long)flow.firstDeparture,
                (unsigned long long)flow.lastArrival);

    const auto report = validateSchedule(schedule, topo);
    std::printf("schedule validation: %s (%llu windows checked)\n",
                report.ok ? "OK" : report.firstViolation.c_str(),
                (unsigned long long)report.windowsChecked);

    // 4. Execute on the cycle-level simulator.
    Machine machine(*compiled, 42);
    machine.chip(2).setStream(0, makeVec(Vec(3.14f)));
    machine.run(session.observers(), "quickstart", session.hostprof());

    // 5. Verify: data landed, exactly when promised. Had any vector
    //    missed its window the chip model would have panicked.
    TspChip &receiver = machine.chip(5);
    unsigned present = 0;
    for (std::uint32_t s = 0; s < transfer.vectors; ++s)
        present += receiver.mem().present(LocalAddr::unflatten(s));
    const Cycle halt = receiver.clock().tickToCycle(receiver.stats().haltTick);
    std::printf("destination holds %u/%u vectors; receiver halted at "
                "cycle %llu (schedule makespan %llu)\n",
                present, transfer.vectors, (unsigned long long)halt,
                (unsigned long long)schedule.makespan);
    std::printf("end-to-end transfer latency: %.2f us\n",
                double(schedule.makespan - transfer.earliest) /
                    kCoreFreqHz * 1e6);
    session.finish();
    return present == transfer.vectors ? 0 : 1;
}
