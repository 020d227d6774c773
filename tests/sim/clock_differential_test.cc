/**
 * @file
 * Drifting clocks, pinned and checked against the old clock.
 *
 * Differential: the library's DriftClock against the double-precision
 * clock kept in reference_clock.hh, over every (clock, cycle) a
 * drift-free run, the 256-TSP hac-sync bring-up and the Table 2
 * characterizer touch. Drift-free clocks must agree everywhere; on
 * drifting clocks the disagreements are counted and pinned, so a
 * change to the clock's arithmetic shows up as a changed count.
 *
 * Pins: the full-category timeline digest of the hac-sync bring-up
 * (256 TSPs, sigma 50 ppm, jitter, 100 us synchronize, then an
 * aligned launch of RUNTIME_DESKEW payloads) on seeds 1 and 271828,
 * and of the Table 2 characterization (uniform +-50 ppm clocks, TSP0
 * at 0 ppm, 100K echoes on each of TSP0's seven intra-node links).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "reference_clock.hh"
#include "runtime/machine.hh"
#include "sim/clock.hh"
#include "sync/link_characterizer.hh"
#include "trace/digest.hh"

namespace tsm {
namespace {

/** A clock as both implementations build it. */
struct ClockSpec
{
    double ppm = 0.0;
    Tick phase = 0;
};

/** The clocks Machine(SystemConfig) draws for the hac-sync bring-up. */
SystemConfig
hacSyncConfig(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numTsps = 256;
    cfg.driftPpmSigma = 50.0;
    cfg.jitter = true;
    cfg.seed = seed;
    return cfg;
}

std::vector<ClockSpec>
hacSyncClocks(std::uint64_t seed)
{
    Machine sys(hacSyncConfig(seed));
    std::vector<ClockSpec> out;
    for (TspId t = 0; t < sys.topo().numTsps(); ++t)
        out.push_back({sys.chip(t).clock().ppm(),
                       sys.chip(t).clock().phasePs()});
    return out;
}

/** Table 2's clocks: uniform +-50 ppm, TSP0 at 0 ppm. */
std::vector<ClockSpec>
table2Clocks()
{
    Rng drift(7);
    std::vector<ClockSpec> out;
    for (TspId t = 0; t < 8; ++t) {
        const double ppm = t == 0 ? 0.0 : drift.uniform(-50.0, 50.0);
        out.push_back({ppm, Tick(drift.below(100000))});
    }
    return out;
}

/**
 * Conversions on which the two clocks disagree, over cycles
 * [0, dense) and `sampled` seeded draws below `limit`. Each cycle
 * checks cycleToTick and tickToCycle on both sides of its edge.
 */
std::uint64_t
disagreements(const ClockSpec &spec, Cycle dense, unsigned sampled,
              Cycle limit)
{
    const DriftClock lib(spec.ppm, spec.phase);
    const reference::DriftClock ref(spec.ppm, spec.phase);
    std::uint64_t bad = 0;
    const auto check = [&](Cycle c) {
        const Tick t = ref.cycleToTick(c);
        bad += lib.cycleToTick(c) != t;
        bad += lib.tickToCycle(t) != ref.tickToCycle(t);
        if (t > 0)
            bad += lib.tickToCycle(t - 1) != ref.tickToCycle(t - 1);
    };
    for (Cycle c = 0; c < dense; ++c)
        check(c);
    Rng rng(std::uint64_t(spec.phase) * 1000003 + 17);
    for (unsigned i = 0; i < sampled; ++i)
        check(rng.below(limit));
    return bad;
}

TEST(ClockDifferential, DriftFreeClocksAgreeEverywhere)
{
    // Phases as Machine draws them; cycles far past any run here.
    std::uint64_t bad = 0;
    for (Tick phase : {Tick(0), Tick(1), Tick(555), Tick(99999)})
        bad += disagreements({0.0, phase}, Cycle(1) << 20, 1u << 20,
                             Cycle(100'000'000'000));
    EXPECT_EQ(bad, 0u);
}

/** Cycles past the end of the hac-sync bring-up (DriftingPins). */
constexpr Cycle kHacSyncCycles = Cycle(1) << 17;

/** Disagreements over every cycle a 100 us bring-up plus payload uses. */
std::uint64_t
hacSyncDisagreements(std::uint64_t seed)
{
    std::uint64_t bad = 0;
    for (const ClockSpec &spec : hacSyncClocks(seed))
        bad += disagreements(spec, kHacSyncCycles, 0, 1);
    std::cout << "hac-sync seed " << seed << ": " << bad
              << " clock disagreements\n";
    return bad;
}

TEST(ClockDifferential, HacSyncDriftingDisagreementsAreCounted)
{
    EXPECT_EQ(hacSyncDisagreements(1), 0u);
    EXPECT_EQ(hacSyncDisagreements(271828), 0u);
}

TEST(ClockDifferential, Table2DriftingDisagreementsAreCounted)
{
    // Table 2 runs 700K echoes of ~430 cycles: ~3e8 cycles per clock.
    std::uint64_t bad = 0;
    for (const ClockSpec &spec : table2Clocks())
        bad += disagreements(spec, Cycle(1) << 20, 1u << 20,
                             Cycle(1) << 29);
    std::cout << "table 2: " << bad << " clock disagreements\n";
    // Each is a cycle whose exact product c × period lies a hair below
    // a half picosecond (e.g. c = 355005108 on TSP1: ...353.499999
    // ps): the double product rounds to exactly .5 and llround takes it
    // up, where the integer product rounds down. They all lie far past
    // the cycles hac-sync touches, and moved no pin.
    EXPECT_EQ(bad, 382u);
}

/** Digest of one hac-sync bring-up: synchronize, then a payload. */
struct BringUp
{
    int residual = 0;
    std::uint64_t syncEvents = 0;
    std::uint64_t syncDigest = 0;
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    Tick end = 0;
};

BringUp
bringUp(std::uint64_t seed)
{
    DigestSink digest;
    Machine sys(hacSyncConfig(seed));
    sys.tracer().addSink(&digest);
    BringUp out;
    out.residual = sys.synchronize(100 * kPsPerUs);
    out.syncEvents = digest.events();
    out.syncDigest = digest.digest();

    std::vector<Program> payloads(sys.topo().numTsps());
    Rng rng(seed ^ 0x5bd1e995ULL);
    for (Program &p : payloads)
        for (int seg = 0; seg < 4; ++seg) {
            p.emitCompute(Cycle(1000 + rng.below(3000)));
            p.emit(Op::RuntimeDeskew).imm = 64;
        }
    sys.launchAligned(std::move(payloads));
    EXPECT_TRUE(sys.runToCompletion(sys.eventq().now() + kPsPerMs));
    sys.tracer().removeSink(&digest);
    out.end = sys.eventq().now();
    out.events = digest.events();
    out.digest = digest.digest();
    return out;
}

TEST(DriftingPins, HacSyncSeed1)
{
    const BringUp b = bringUp(1);
    EXPECT_EQ(b.residual, 24);
    EXPECT_EQ(b.syncEvents, 546829u);
    EXPECT_EQ(b.syncDigest, 0x3718df4fa5c8c9e8ULL);
    EXPECT_EQ(b.events, 559518u);
    EXPECT_EQ(b.digest, 0xf664656bcd1d303ULL);
    EXPECT_LT(b.end, DriftClock(-250.0).cycleToTick(kHacSyncCycles));
}

TEST(DriftingPins, HacSyncSeed271828)
{
    const BringUp b = bringUp(271828);
    EXPECT_EQ(b.residual, 26);
    EXPECT_EQ(b.syncEvents, 546625u);
    EXPECT_EQ(b.syncDigest, 0x5328ce4c3294fe90ULL);
    EXPECT_EQ(b.events, 559317u);
    EXPECT_EQ(b.digest, 0x51e3150bf4fdd756ULL);
    EXPECT_LT(b.end, DriftClock(-250.0).cycleToTick(kHacSyncCycles));
}

TEST(DriftingPins, Table2Characterization)
{
    // bench/table2_hac_characterization's node, clocks and seeds.
    const Topology topo = Topology::makeNode();
    EventQueue eq;
    DigestSink digest;
    eq.tracer().addSink(&digest);
    Network net(topo, eq, Rng(20260706), /*jitter=*/true);
    std::vector<std::unique_ptr<TspChip>> chips;
    const std::vector<ClockSpec> clocks = table2Clocks();
    for (TspId t = 0; t < topo.numTsps(); ++t)
        chips.push_back(std::make_unique<TspChip>(
            t, net, DriftClock(clocks[t].ppm, clocks[t].phase)));

    for (TspId peer = 1; peer < 8; ++peer) {
        LinkCharacterizer lc(*chips[0], *chips[peer],
                             topo.linksBetween(0, peer)[0]);
        lc.start(100000);
        eq.run();
    }
    eq.tracer().removeSink(&digest);
    EXPECT_EQ(eq.now(), Tick(337368376979));
    EXPECT_EQ(digest.events(), 4200007u);
    EXPECT_EQ(digest.digest(), 0x25a6b3411a952285ULL);
}

} // namespace
} // namespace tsm
