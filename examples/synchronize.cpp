/**
 * @file
 * The synchronization story of §3, end to end: eight TSPs with
 * independent, drifting clocks characterize their links with HAC
 * echoes (Table 2), align their HACs over a spanning tree, launch a
 * program simultaneously through DESKEW/TRANSMIT alignment, and hold
 * synchrony with RUNTIME_DESKEW.
 *
 *   ./synchronize
 */

#include <cstdio>

#include "common/table.hh"
#include "runtime/machine.hh"
#include "sync/link_characterizer.hh"

using namespace tsm;

int
main()
{
    // Eight TSPs, clocks off by up to +-50 ppm, jittery links.
    SystemConfig cfg;
    cfg.numTsps = 8;
    cfg.driftPpmSigma = 50.0;
    cfg.jitter = true;
    Machine sys(cfg);

    // 1. Characterize TSP0's seven intra-node links (Table 2).
    std::printf("link characterization (10k HAC echoes per link):\n");
    Table table({"link", "min", "mean", "max", "std"});
    const char *names = "ABCDEFG";
    for (TspId peer = 1; peer < 8; ++peer) {
        const LinkId link = sys.topo().linksBetween(0, peer)[0];
        LinkCharacterizer lc(sys.chip(0), sys.chip(peer), link);
        lc.start(10000);
        sys.eventq().run();
        const auto &st = lc.latencyCycles();
        table.addRow({std::string(1, names[peer - 1]),
                      Table::num(st.min(), 0), Table::num(st.mean(), 2),
                      Table::num(st.max(), 0),
                      Table::num(st.stddev(), 2)});
    }
    std::printf("%s(cycles; paper Table 2: mean ~216.9, std ~2.8)\n\n",
                table.ascii().c_str());

    // 2. Align every HAC to TSP0's time base over the spanning tree.
    const int residual = sys.synchronize();
    std::printf("HAC spanning-tree alignment: worst residual %d "
                "cycle(s)\n",
                residual);

    // 3. Launch a payload simultaneously on all chips: DESKEW +
    //    TRANSMIT alignment gives every chip the same start epoch,
    //    and RUNTIME_DESKEW re-centers the clocks mid-run.
    std::vector<Program> payloads(8);
    for (auto &p : payloads) {
        for (int seg = 0; seg < 4; ++seg) {
            p.emitCompute(50000);
            auto &rd = p.emit(Op::RuntimeDeskew);
            rd.imm = 64;
        }
    }
    sys.launchAligned(std::move(payloads));
    const bool done = sys.runToCompletion();
    std::printf("synchronized run %s\n", done ? "completed" : "FAILED");

    for (TspId t = 0; t < 8; ++t) {
        const auto &st = sys.chip(t).stats();
        std::printf("  tsp%u: halted at %.3f ms, runtime-deskew stall "
                    "%llu cycles\n",
                    t, psToUs(double(st.haltTick)) / 1e3,
                    (unsigned long long)st.deskewStallCycles);
    }
    return done ? 0 : 1;
}
