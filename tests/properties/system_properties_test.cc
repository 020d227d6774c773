#include <gtest/gtest.h>

#include <memory>

#include "arch/chip.hh"
#include "collective/allreduce.hh"
#include "runtime/machine.hh"
#include "ssn/scheduler.hh"
#include "sync/sync_tree.hh"

namespace tsm {
namespace {

/** Golden-run reproducibility across full-system simulations. */
TEST(GoldenRun, FullSystemByteIdenticalAcrossRuns)
{
    auto run = [](std::uint64_t seed) {
        SystemConfig cfg;
        cfg.numTsps = 16;
        cfg.driftPpmSigma = 25.0;
        cfg.jitter = true;
        cfg.seed = seed;
        Machine sys(cfg);
        const int residual = sys.synchronize(2 * kPsPerMs);
        std::vector<Program> payloads(16);
        for (auto &p : payloads) {
            p.emitCompute(12345);
            auto &rd = p.emit(Op::RuntimeDeskew);
            rd.imm = 32;
            p.emitCompute(6789);
        }
        sys.launchAligned(std::move(payloads));
        sys.runToCompletion();
        std::vector<Tick> halts;
        for (TspId t = 0; t < 16; ++t)
            halts.push_back(sys.chip(t).stats().haltTick);
        return std::pair(residual, halts);
    };
    const auto a = run(99);
    const auto b = run(99);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    // A different seed gives a different (but valid) execution.
    const auto c = run(100);
    EXPECT_NE(a.second, c.second);
}

/** Drift sweep: RUNTIME_DESKEW bounds skew across drift magnitudes. */
class DriftSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DriftSweep, SkewStaysWithinOneEpoch)
{
    const double ppm = GetParam();
    EventQueue eq;
    Topology topo = Topology::makeNode();
    Network net(topo, eq, Rng(3));
    TspChip parent(0, net, DriftClock(0.0));
    TspChip child(1, net, DriftClock(ppm));
    const LinkId link = topo.linksBetween(0, 1)[0];
    HacAligner aligner(
        parent, child, link,
        double(linkPropagationPs(LinkClass::IntraNode)) / kCorePeriodPs);
    aligner.start();

    Program prog;
    for (int seg = 0; seg < 10; ++seg) {
        prog.emitCompute(200000);
        auto &rd = prog.emit(Op::RuntimeDeskew);
        rd.imm = 128;
    }
    prog.emitHalt();
    Program prog2 = prog;
    int halted = 0;
    const auto on_halt = [&] {
        if (++halted == 2)
            aligner.stop();
    };
    parent.onHalt(on_halt);
    child.onHalt(on_halt);
    parent.load(std::move(prog));
    child.load(std::move(prog2));
    parent.start(0);
    child.start(0);
    eq.run();

    const auto skew = std::llabs(std::int64_t(parent.stats().haltTick) -
                                 std::int64_t(child.stats().haltTick));
    EXPECT_LT(skew, std::int64_t(kHacPeriodCycles * kCorePeriodPs))
        << "ppm=" << ppm;
}

INSTANTIATE_TEST_SUITE_P(Ppm, DriftSweep,
                         ::testing::Values(-80.0, -40.0, -10.0, 10.0,
                                           40.0, 80.0));

/** Aligner adjustment-rate ablation: faster rate converges sooner. */
class RateSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RateSweep, ConvergesFromLargeOffset)
{
    const int rate = GetParam();
    EventQueue eq;
    Topology topo = Topology::makeNode();
    Network net(topo, eq, Rng(4));
    TspChip parent(0, net, DriftClock());
    TspChip child(1, net, DriftClock());
    child.adjustHac(120);
    HacAlignerConfig cfg;
    cfg.maxAdjustPerUpdate = rate;
    HacAligner aligner(
        parent, child, topo.linksBetween(0, 1)[0],
        double(linkPropagationPs(LinkClass::IntraNode)) / kCorePeriodPs,
        cfg);
    aligner.start();
    eq.runUntil(Tick((130.0 / rate + 20) * kHacPeriodCycles *
                     kCorePeriodPs));
    aligner.stop();
    eq.run();
    EXPECT_TRUE(aligner.converged(2))
        << "rate " << rate << " delta " << aligner.lastDelta();
    // Updates needed scales inversely with the rate.
    EXPECT_GE(aligner.updatesApplied(), std::uint64_t(120 / rate));
}

INSTANTIATE_TEST_SUITE_P(Rates, RateSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

/** FEC sweep: error rates scale detections, never timing. */
class FecSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(FecSweep, DetectionsScaleTimingDoesNot)
{
    const double rate = GetParam();
    const Topology topo = Topology::makeNode();
    EventQueue eq;
    Network net(topo, eq, Rng(5));
    net.setErrorModel({.sbePerVector = rate, .mbePerVector = rate / 10});
    const LinkId l = topo.linksBetween(0, 1)[0];
    const Tick ser = Tick(kVectorSerializationPs);
    const unsigned n = 2000;
    Tick last_arrival = 0;
    for (unsigned i = 0; i < n; ++i)
        last_arrival = net.transmit(0, l, Flit{}, i * ser);
    eq.run();
    // Timing identical regardless of the error rate.
    EXPECT_EQ(last_arrival,
              (n - 1) * ser + ser + linkPropagationPs(LinkClass::IntraNode));
    // Detections track the configured rates statistically.
    const auto &st = net.linkStats(l);
    EXPECT_NEAR(double(st.sbeCorrected), rate * n,
                5.0 * std::sqrt(rate * n) + 3.0);
    EXPECT_NEAR(double(st.mbeDetected), rate / 10 * n,
                5.0 * std::sqrt(rate / 10 * n) + 3.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, FecSweep,
                         ::testing::Values(0.001, 0.01, 0.1, 0.5));

/** All-reduce analytic/scheduled agreement across sizes (TEST_P). */
class AllReduceAgreement : public ::testing::TestWithParam<Bytes>
{
};

TEST_P(AllReduceAgreement, WithinFifteenPercent)
{
    const Topology topo = Topology::makeNode();
    HierarchicalAllReduce ar(topo);
    const Bytes bytes = GetParam();
    const auto sim = ar.scheduled(bytes);
    const auto model = ar.analytic(bytes);
    EXPECT_NEAR(double(model.cycles), double(sim.cycles),
                0.15 * double(sim.cycles));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AllReduceAgreement,
                         ::testing::Values(32 * kKiB, 128 * kKiB,
                                           kMiB, 2 * kMiB));

} // namespace
} // namespace tsm
