/**
 * @file
 * The paper's end-to-end determinism claim as a regression oracle:
 * the golden timeline digest (trace/digest.hh) over every traced
 * event of a run — bring-up under clock drift, link jitter and FEC
 * errors, then a scheduled All-Reduce under injected FEC errors —
 * must be bit-identical across runs with the same seed, and must
 * diverge when the seed changes.
 */

#include <gtest/gtest.h>

#include "collective/allreduce.hh"
#include "runtime/machine.hh"
#include "ssn/scheduler.hh"
#include "trace/digest.hh"

namespace tsm {
namespace {

/** Digest of the bring-up phase: HAC alignment under adverse physics. */
std::uint64_t
bringupDigest(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numTsps = 8;
    cfg.driftPpmSigma = 20.0;
    cfg.jitter = true;
    cfg.errors = {.sbePerVector = 0.01, .mbePerVector = 0.001};
    cfg.seed = seed;
    DigestSink digest;
    Machine sys(cfg);
    sys.tracer().addSink(&digest);
    sys.synchronize(2 * kPsPerMs);
    EXPECT_GT(digest.events(), 0u);
    return digest.digest();
}

/**
 * Digest of an 8-way reduce-scatter executed on chips. Scheduled
 * programs require the SSN operating regime (no drift, no jitter),
 * but FEC errors stay on: corruption is detected and counted without
 * perturbing timing, so it must not perturb the digest either —
 * except through the error events themselves, which the seed pins.
 */
std::uint64_t
allReduceDigest(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numTsps = 8;
    cfg.errors = {.mbePerVector = 0.02};
    cfg.seed = seed;
    DigestSink digest;
    Machine sys(cfg);
    sys.tracer().addSink(&digest);

    HierarchicalAllReduce ar(sys.topo());
    SsnScheduler scheduler(sys.topo());
    const auto schedule =
        scheduler.schedule(ar.reduceScatterTransfers(16 * kKiB, 1, 100));
    EXPECT_TRUE(validateSchedule(schedule, sys.topo()).ok);

    // Deposit each flow into its own SRAM region so receives drain to
    // memory instead of pinning stream registers.
    std::unordered_map<FlowId, LocalAddr> dst;
    std::uint64_t region = 0;
    for (const auto &[flow, summary] : schedule.flows)
        dst[flow] = LocalAddr::unflatten((region++) * 256);
    auto programs = buildPrograms(schedule, sys.topo(), dst);
    for (TspId t = 0; t < sys.numTsps(); ++t)
        sys.chip(t).setStream(0, makeVec(Vec(1.0f)));
    sys.launch(std::move(programs.byChip), 0);
    EXPECT_TRUE(sys.runToCompletion());
    EXPECT_GT(digest.events(), 0u);
    return digest.digest();
}

TEST(Determinism, BringupSameSeedSameDigest)
{
    EXPECT_EQ(bringupDigest(7), bringupDigest(7));
}

TEST(Determinism, BringupDifferentSeedsDiverge)
{
    // Different seeds draw different drift rates, phases, jitter and
    // error outcomes; the full-timeline digest must see that.
    EXPECT_NE(bringupDigest(7), bringupDigest(8));
}

TEST(Determinism, AllReduceSameSeedSameDigest)
{
    EXPECT_EQ(allReduceDigest(21), allReduceDigest(21));
}

TEST(Determinism, AllReduceDifferentSeedsDiverge)
{
    // With mbePerVector = 0.02 over ~1600 flit events, runs with
    // different seeds corrupt different vectors.
    EXPECT_NE(allReduceDigest(21), allReduceDigest(22));
}

} // namespace
} // namespace tsm
