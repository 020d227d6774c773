/**
 * @file
 * Per-chip clock domains with frequency drift.
 *
 * Every TSP has an independent clock source; the paper's HAC/SAC
 * machinery exists precisely because these clocks drift relative to one
 * another (plesiochronous operation, §3). A DriftClock maps a chip's
 * local cycle count onto the global picosecond timeline with a
 * parts-per-million frequency offset and an arbitrary phase.
 *
 * The period is fixed once, at construction, as an exact integer in
 * units of 2^-kClockFracBits ps; every conversion after that is integer
 * arithmetic, so no floating-point rounding (x87, FMA contraction,
 * -ffast-math) can move a tick.
 */

#ifndef TSM_SIM_CLOCK_HH
#define TSM_SIM_CLOCK_HH

#include <cmath>
#include <cstdint>

#include "common/units.hh"

namespace tsm {

/**
 * Fraction bits of a clock period. A period in [1024, 2048) ps, which
 * holds the 1111 ps core period at any drift within +-85,000 ppm, has
 * a double mantissa whose last bit is 2^-42 ps, so the ppm-derived
 * double period converts exactly.
 */
inline constexpr unsigned kClockFracBits = 42;

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
     */
    explicit DriftClock(double ppm = 0.0, Tick phase_ps = 0)
        : period_(std::uint64_t(std::ldexp(
              kCorePeriodPs / (1.0 + ppm * 1e-6), kClockFracBits))),
          inverse_(std::uint64_t(((U128(1) << (63 + kClockFracBits)) +
                                  period_ - 1) /
                                 period_)),
          phasePs_(phase_ps), ppm_(ppm)
    {}

    /** Actual period in picoseconds after applying drift. */
    double
    periodPs() const
    {
        return std::ldexp(double(period_), -int(kClockFracBits));
    }

    /** Configured frequency error in ppm. */
    double ppm() const { return ppm_; }

    /** Phase of cycle 0 on the global timeline. */
    Tick phasePs() const { return phasePs_; }

    /** Global time at the start of local cycle `c`: c × period, rounded. */
    Tick
    cycleToTick(Cycle c) const
    {
        return phasePs_ + Tick((U128(c) * period_ + kHalf) >> kClockFracBits);
    }

    /**
     * Local cycle containing global time `t` (0 before phase): the
     * largest c with cycleToTick(c) <= t, so conversions round-trip
     * exactly despite cycleToTick's rounding. `t - phase` must be
     * below 2^62 ps (~53 days).
     */
    Cycle
    tickToCycle(Tick t) const
    {
        if (t <= phasePs_)
            return 0;
        // c <= t'/period with t' = t - phase + 1/2 (cycleToTick rounds
        // half up). The reciprocal is rounded up, so the estimate is the
        // answer or one above it.
        const std::uint64_t twice = 2 * (t - phasePs_) + 1;
        const Cycle c = Cycle((U128(twice) * inverse_) >> 64);
        return cycleToTick(c) > t ? c - 1 : c;
    }

    /** The first cycle whose boundary is at or after `t`. */
    Cycle
    cycleAtOrAfter(Tick t) const
    {
        return t <= phasePs_ ? 0 : tickToCycle(t - 1) + 1;
    }

    /** First cycle boundary at or after global time `t`. */
    Tick nextEdge(Tick t) const { return cycleToTick(cycleAtOrAfter(t)); }

  private:
    __extension__ typedef unsigned __int128 U128;

    static constexpr std::uint64_t kHalf = std::uint64_t(1)
                                           << (kClockFracBits - 1);

    /** Period in 2^-kClockFracBits ps. */
    std::uint64_t period_;
    /** ceil(2^(63 + kClockFracBits) / period_): 2^64 / (2 × period). */
    std::uint64_t inverse_;
    Tick phasePs_;
    double ppm_;
};

} // namespace tsm

#endif // TSM_SIM_CLOCK_HH
