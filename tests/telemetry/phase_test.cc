/**
 * @file
 * Bottleneck-phase analyzer tests: regime classification on synthetic
 * window streams, tie-breaking, idle-bubble labeling, phase merging,
 * and the hottest-link/FU naming.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "telemetry/phase.hh"
#include "telemetry/timeline.hh"

namespace tsm {
namespace {

Tick
cyclesPs(Cycle cycles)
{
    return Tick(std::llround(double(cycles) * kCorePeriodPs));
}

TEST(Phase, RegimeNamesAndChars)
{
    EXPECT_STREQ(regimeName(Regime::Idle), "idle");
    EXPECT_STREQ(regimeName(Regime::Compute), "compute");
    EXPECT_STREQ(regimeName(Regime::Network), "network");
    EXPECT_STREQ(regimeName(Regime::Sync), "sync");
    EXPECT_EQ(regimeChar(Regime::Idle), '.');
    EXPECT_EQ(regimeChar(Regime::Compute), 'C');
    EXPECT_EQ(regimeChar(Regime::Network), 'N');
    EXPECT_EQ(regimeChar(Regime::Sync), 'S');
}

TEST(Phase, ComputeBoundWindow)
{
    TimelineSampler s(10);
    // Window 0 is all MXM busy with no network traffic.
    s.event({0, cyclesPs(8), TraceCat::Chip, TraceOp(Op::MxmMatMul), 0, 0, 0});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 0, 0, 8});
    s.finish();

    const PhaseAnalysis a = analyzePhases(s);
    ASSERT_EQ(a.labels.size(), 1u);
    EXPECT_EQ(a.labels[0].regime, Regime::Compute);
    EXPECT_EQ(a.labels[0].hotFu, std::int64_t(FuncUnit::MXM));
    EXPECT_EQ(a.labels[0].hotLink, -1);
    EXPECT_GT(a.labels[0].busyFrac, 0.9);
}

TEST(Phase, SyncBoundWindow)
{
    TimelineSampler s(10);
    // Stall (poll wait) dominates the charged cycles.
    s.event({0, cyclesPs(7), TraceCat::Chip, TraceOp::PollWait, 0, 0, 0});
    s.event({0, cyclesPs(2), TraceCat::Chip, TraceOp(Op::VAdd), 0, 0, 7});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 0, 0, 9});
    s.finish();

    const PhaseAnalysis a = analyzePhases(s);
    ASSERT_EQ(a.labels.size(), 1u);
    EXPECT_EQ(a.labels[0].regime, Regime::Sync);
    EXPECT_GT(a.labels[0].stallFrac, a.labels[0].busyFrac);
}

TEST(Phase, NetworkBoundWindow)
{
    TimelineSampler s(100);
    // Four serialization charges on link 3 (each ~24 cycles of the
    // 100-cycle window) dwarf one 2-cycle VADD.
    const Tick ser = Tick(std::llround(kVectorSerializationPs));
    for (unsigned i = 0; i < 4; ++i)
        s.event({cyclesPs(i * 24), ser, TraceCat::Net, TraceOp::Tx, 3, 1,
                 std::int64_t(i)});
    s.event({0, cyclesPs(2), TraceCat::Chip, TraceOp(Op::VAdd), 0, 0, 0});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 0, 0, 90});
    s.finish();

    const PhaseAnalysis a = analyzePhases(s);
    ASSERT_EQ(a.labels.size(), 1u);
    EXPECT_EQ(a.labels[0].regime, Regime::Network);
    EXPECT_EQ(a.labels[0].hotLink, 3);
    EXPECT_GT(a.labels[0].netUtil, 0.9);
}

TEST(Phase, AllIdleWindowIsIdleNotSync)
{
    TimelineSampler s(10);
    // A 2-cycle op at cycle 0, then nothing until cycle 28: windows 1
    // and 2 hold only idle cycles — a pipeline bubble, not sync time.
    s.event({0, cyclesPs(2), TraceCat::Chip, TraceOp(Op::VAdd), 0, 0, 0});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 0, 0, 28});
    s.finish();

    const PhaseAnalysis a = analyzePhases(s);
    ASSERT_EQ(a.labels.size(), 3u);
    EXPECT_EQ(a.labels[1].regime, Regime::Idle);
    EXPECT_EQ(a.labels[2].regime, Regime::Idle);
}

TEST(Phase, HacOnlyWindowIsSync)
{
    TimelineSampler s(10);
    s.event({cyclesPs(3), 0, TraceCat::Sync, TraceOp::HacAdj, 1, -4, 2});
    s.finish();

    const PhaseAnalysis a = analyzePhases(s);
    ASSERT_EQ(a.labels.size(), 1u);
    EXPECT_EQ(a.labels[0].regime, Regime::Sync);
}

TEST(Phase, ConsecutiveSameRegimeWindowsMerge)
{
    TimelineSampler s(10);
    // Windows 0-1 compute, windows 2-3 idle, window 4 compute.
    s.event({0, cyclesPs(18), TraceCat::Chip, TraceOp(Op::Compute), 0, 0, 0});
    s.event({0, cyclesPs(4), TraceCat::Chip, TraceOp(Op::MxmMatMul), 0, 0, 44});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 0, 0, 48});
    s.finish();

    const PhaseAnalysis a = analyzePhases(s);
    ASSERT_EQ(a.labels.size(), 5u);
    ASSERT_EQ(a.phases.size(), 3u);
    EXPECT_EQ(a.phases[0].regime, Regime::Compute);
    EXPECT_EQ(a.phases[0].firstWindow, 0u);
    EXPECT_EQ(a.phases[0].lastWindow, 1u);
    EXPECT_EQ(a.phases[0].windows(), 2u);
    EXPECT_EQ(a.phases[1].regime, Regime::Idle);
    EXPECT_EQ(a.phases[1].firstWindow, 2u);
    EXPECT_EQ(a.phases[1].lastWindow, 3u);
    EXPECT_EQ(a.phases[2].regime, Regime::Compute);
    EXPECT_EQ(a.phases[2].firstWindow, 4u);
    EXPECT_EQ(a.phases[2].hotFu, std::int64_t(FuncUnit::MXM));
}

TEST(Phase, PhaseNamesHottestLinkByTotalWork)
{
    TimelineSampler s(100);
    const Tick ser = Tick(std::llround(kVectorSerializationPs));
    // Link 2 carries three flits, link 7 one: the phase's hot link is
    // the one that did the most total serialization work.
    s.event({cyclesPs(0), ser, TraceCat::Net, TraceOp::Tx, 2, 1, 0});
    s.event({cyclesPs(30), ser, TraceCat::Net, TraceOp::Tx, 2, 1, 1});
    s.event({cyclesPs(110), ser, TraceCat::Net, TraceOp::Tx, 2, 1, 2});
    s.event({cyclesPs(120), ser, TraceCat::Net, TraceOp::Tx, 7, 2, 0});
    s.finish();

    const PhaseAnalysis a = analyzePhases(s);
    ASSERT_EQ(a.phases.size(), 1u);
    EXPECT_EQ(a.phases[0].regime, Regime::Network);
    EXPECT_EQ(a.phases[0].hotLink, 2);
    EXPECT_EQ(a.phases[0].flits, 4u);
}

TEST(Phase, JsonSerializationMatchesAnalysis)
{
    TimelineSampler s(10);
    s.event({0, cyclesPs(8), TraceCat::Chip, TraceOp(Op::VMul), 0, 0, 0});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 0, 0, 8});
    s.finish();

    const PhaseAnalysis a = analyzePhases(s);
    const Json labels = windowLabelsJson(a);
    ASSERT_EQ(labels.size(), a.labels.size());
    EXPECT_EQ(labels.at(0)["regime"].str(), "compute");
    EXPECT_EQ(labels.at(0)["hot_fu"].str(), "VXM");

    const Json phases = phasesJson(a);
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases.at(0)["regime"].str(), "compute");
    EXPECT_EQ(phases.at(0)["windows"].integer(), 1);

    const std::string table = renderPhaseTable(phases);
    EXPECT_NE(table.find("bottleneck phases"), std::string::npos);
    EXPECT_NE(table.find("compute"), std::string::npos);

    // Empty phases render to nothing.
    EXPECT_EQ(renderPhaseTable(Json::array()), "");
}

} // namespace
} // namespace tsm
