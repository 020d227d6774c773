/**
 * @file
 * tsm_top renderer tests: shading ramp, empty documents, and a smoke
 * render of a real sampled timeline — heatmap rows, phase ribbon and
 * summary table all present and sized to the column budget.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "telemetry/phase.hh"
#include "telemetry/render.hh"
#include "telemetry/timeline.hh"

namespace tsm {
namespace {

Tick
cyclesPs(Cycle cycles)
{
    return Tick(std::llround(double(cycles) * kCorePeriodPs));
}

TEST(Render, ShadeRampIsMonotonic)
{
    EXPECT_EQ(shadeChar(0.0), ' ');
    EXPECT_EQ(shadeChar(1.0), '@');
    EXPECT_EQ(shadeChar(2.0), '@'); // clamped above 100%
    double prev = -1;
    for (double u = 0.0; u <= 1.0; u += 0.05) {
        const char *pos = std::strchr(kShadeRamp, shadeChar(u));
        ASSERT_NE(pos, nullptr) << "util " << u;
        EXPECT_GE(pos - kShadeRamp, prev) << "util " << u;
        prev = double(pos - kShadeRamp);
    }
}

TEST(Render, EmptyTimelineExplainsItself)
{
    TimelineSampler s;
    s.finish();
    const std::string out = renderTimelineTop(s.report());
    EXPECT_NE(out.find("no windowed activity"), std::string::npos);
}

TEST(Render, SmokeRenderOfSampledTimeline)
{
    TimelineSampler s(10);
    s.setBench("render_smoke");
    s.setSeed(7);
    const Tick ser = Tick(std::llround(kVectorSerializationPs));
    // Three windows: network burst, compute, idle tail.
    s.event({cyclesPs(1), ser, TraceCat::Net, TraceOp::Tx, 4, 1, 0});
    s.event({cyclesPs(2), 0, TraceCat::Net, TraceOp::Rx, 4, 1, 0});
    s.event({cyclesPs(3), 0, TraceCat::Ssn, TraceOp::Recv, 0, 1, 0});
    s.event({0, cyclesPs(9), TraceCat::Chip, TraceOp(Op::MxmMatMul), 0, 0, 11});
    s.event({0, 0, TraceCat::Chip, TraceOp::Halt, 0, 0, 29});
    s.finish();

    const PhaseAnalysis analysis = analyzePhases(s);
    const Json doc = s.report(&analysis);

    TopOptions opts;
    opts.cols = 16;
    const std::string out = renderTimelineTop(doc, opts);
    EXPECT_NE(out.find("render_smoke"), std::string::npos);
    EXPECT_NE(out.find("link 4"), std::string::npos);
    EXPECT_NE(out.find("tsp 0"), std::string::npos);
    EXPECT_NE(out.find("phase ribbon"), std::string::npos);
    EXPECT_NE(out.find("bottleneck phases"), std::string::npos);

    // Heatmap rows are bounded by the column budget: the row body
    // between the pipes never exceeds opts.cols characters.
    const std::size_t row = out.find("link 4");
    ASSERT_NE(row, std::string::npos);
    const std::size_t open = out.find('|', row);
    const std::size_t close = out.find('|', open + 1);
    ASSERT_NE(close, std::string::npos);
    EXPECT_LE(close - open - 1, std::size_t(opts.cols));
}

TEST(Render, ManyWindowsBucketIntoColumns)
{
    TimelineSampler s(10);
    const Tick ser = Tick(std::llround(kVectorSerializationPs));
    // 200 windows of traffic on one link.
    for (unsigned w = 0; w < 200; ++w)
        s.event({cyclesPs(w * 10 + 1), ser, TraceCat::Net, TraceOp::Tx, 0, 1,
                 std::int64_t(w)});
    s.finish();

    const PhaseAnalysis analysis = analyzePhases(s);
    TopOptions opts;
    opts.cols = 32;
    const std::string out = renderTimelineTop(s.report(&analysis), opts);
    const std::size_t row = out.find("link 0");
    ASSERT_NE(row, std::string::npos);
    const std::size_t open = out.find('|', row);
    const std::size_t close = out.find('|', open + 1);
    EXPECT_EQ(close - open - 1, std::size_t(opts.cols));
}

} // namespace
} // namespace tsm
