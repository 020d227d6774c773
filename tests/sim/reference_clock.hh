/**
 * @file
 * Test-only reference implementation of the per-chip clock domain:
 * DriftClock exactly as it stood before its conversions became
 * integer-only (a double period, `llround` on every cycle → tick
 * conversion and a division plus correction loops on every tick →
 * cycle conversion).
 *
 * It is kept as a differential oracle: the library's DriftClock must
 * agree with it on every drift-free conversion, and the disagreements
 * on drifting clocks are counted (tests/sim/clock_differential_test).
 * Do not optimise this code; its value is that it is the old,
 * obviously-correct version.
 */

#ifndef TSM_TESTS_SIM_REFERENCE_CLOCK_HH
#define TSM_TESTS_SIM_REFERENCE_CLOCK_HH

#include <cmath>
#include <cstdint>

#include "common/units.hh"

namespace tsm {
namespace reference {

/**
 * A clock domain with nominal 900 MHz frequency, a fixed ppm offset,
 * and a phase offset in picoseconds. Conversions are exact in the
 * sense that cycleToTick and tickToCycle round-trip.
 */
class DriftClock
{
  public:
    /**
     * @param ppm Frequency error in parts per million (positive = the
     *            local oscillator runs fast, so the period is shorter).
     * @param phase_ps Phase offset of cycle 0 on the global timeline.
     * @param nominal_period_ps Nominal period (default: 900 MHz core).
     */
    explicit DriftClock(double ppm = 0.0, Tick phase_ps = 0,
                        double nominal_period_ps = kCorePeriodPs)
        : periodPs_(nominal_period_ps / (1.0 + ppm * 1e-6)),
          phasePs_(phase_ps), ppm_(ppm)
    {}

    /** Actual period in picoseconds after applying drift. */
    double periodPs() const { return periodPs_; }

    /** Configured frequency error in ppm. */
    double ppm() const { return ppm_; }

    /** Phase of cycle 0 on the global timeline. */
    Tick phasePs() const { return phasePs_; }

    /** Global time at the start of local cycle `c`. */
    Tick
    cycleToTick(Cycle c) const
    {
        return phasePs_ + Tick(std::llround(double(c) * periodPs_));
    }

    /**
     * Local cycle containing global time `t` (0 before phase): the
     * largest c with cycleToTick(c) <= t, so conversions round-trip
     * exactly despite cycleToTick's rounding.
     */
    Cycle
    tickToCycle(Tick t) const
    {
        if (t <= phasePs_)
            return 0;
        Cycle c = Cycle(double(t - phasePs_) / periodPs_);
        while (c > 0 && cycleToTick(c) > t)
            --c;
        while (cycleToTick(c + 1) <= t)
            ++c;
        return c;
    }

    /** First cycle boundary at or after global time `t`. */
    Tick
    nextEdge(Tick t) const
    {
        Cycle c = tickToCycle(t);
        Tick edge = cycleToTick(c);
        while (edge < t)
            edge = cycleToTick(++c);
        return edge;
    }

  private:
    double periodPs_;
    Tick phasePs_;
    double ppm_;
};

} // namespace reference
} // namespace tsm

#endif // TSM_TESTS_SIM_REFERENCE_CLOCK_HH
