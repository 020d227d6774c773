/**
 * @file
 * The global shared address space in action (paper Fig 3, §4.2): the
 * node's 1.72 GiB of SRAM is addressed as one rank-5 tensor; remote
 * words are *pushed* by their producers at compile-scheduled times —
 * no request leg, no mutex, no fence.
 *
 *   ./global_memory
 */

#include <cstdio>

#include "runtime/global_memory.hh"

using namespace tsm;

int
main()
{
    Machine machine(SystemConfig{}); // one node of 8 TSPs
    GlobalMemory gm(machine);
    std::printf("global memory: %.2f GiB over %u devices, addressed as "
                "[%u, 2, 44, 2, 4096] x 320 B\n\n",
                double(gm.capacity()) / double(kGiB), machine.numTsps(),
                machine.numTsps());

    // Producer: device 2 computes a 256 KiB tensor into its SRAM.
    const auto vectors = std::uint32_t(bytesToVectors(256 * kKiB));
    for (std::uint32_t w = 0; w < vectors; ++w) {
        GlobalAddr a;
        a.device = 2;
        a.local = LocalAddr::unflatten(w);
        gm.write(a, makeVec(Vec(float(w))));
    }

    // Consumers: devices 5 and 7 will need it. The compiler schedules
    // pushes — data moves toward its consumers before they ask.
    std::vector<PushRequest> pushes;
    for (TspId consumer : {5u, 7u}) {
        PushRequest p;
        p.src.device = 2;
        p.src.local = LocalAddr::unflatten(0);
        p.dstDevice = consumer;
        p.dstAddr = LocalAddr::unflatten(4096);
        p.vectors = vectors;
        pushes.push_back(p);
    }
    const auto compiled = gm.compile(pushes);
    std::printf("compiled %zu pushes: %zu scheduled vectors, makespan "
                "%.2f us, %s\n",
                pushes.size(), compiled.schedule.vectors.size(),
                double(compiled.schedule.makespan) / kCoreFreqHz * 1e6,
                validateSchedule(compiled.schedule, machine.topo()).ok
                    ? "conflict-free"
                    : "BUG");

    gm.execute(pushes);

    // Verify both consumers hold the data.
    bool ok = true;
    for (TspId consumer : {5u, 7u}) {
        for (std::uint32_t w = 0; w < vectors; ++w) {
            GlobalAddr a;
            a.device = consumer;
            a.local = LocalAddr::unflatten(4096 + w);
            ok &= gm.present(a) && (*gm.read(a))[0] == float(w);
        }
    }
    std::printf("consumers verified: %s\n", ok ? "yes" : "NO");
    std::printf("effective push bandwidth: %.1f GB/s aggregate\n",
                2.0 * 256 * kKiB /
                    (double(compiled.schedule.makespan) / kCoreFreqHz) /
                    1e9);
    return ok ? 0 : 1;
}
