/**
 * @file
 * Parent/child HAC alignment (paper §3.1, Fig 7(a) right half).
 *
 * After a link's latency L is characterized, the two TSPs enter a
 * parent/child relationship: the parent periodically transmits its
 * instantaneous HAC value; on receipt the child compares
 * (received + L) mod period against its own HAC and nudges its HAC by
 * a rate-limited amount toward the parent's time base. Repeated every
 * epoch, the two counters converge to within the link jitter, and the
 * protocol continuously tracks relative clock drift.
 */

#ifndef TSM_SYNC_HAC_ALIGNER_HH
#define TSM_SYNC_HAC_ALIGNER_HH

#include "arch/chip.hh"
#include "common/stats.hh"
#include "net/network.hh"

namespace tsm {

/**
 * An aligner has converged once this many cycles bound each of its
 * last few observed deltas: the link jitter's reach (paper §3.1).
 */
inline constexpr int kHacConvergedTolCycles = 2;

/** Configuration of the alignment control loop. */
struct HacAlignerConfig
{
    /** Maximum HAC adjustment per received update, in cycles. */
    int maxAdjustPerUpdate = 8;

    /** Updates are sent every HAC epoch (the paper: every ~256 cycles). */
    Cycle updatePeriodCycles = kHacPeriodCycles;
};

/**
 * Maintains one parent→child alignment relationship over one link.
 * start() begins periodic updates that run until stop() — drive the
 * event queue with runUntil().
 */
class HacAligner
{
  public:
    /**
     * @param parent Reference time source.
     * @param child Chip whose HAC is steered.
     * @param link Connecting link.
     * @param latency_cycles Characterized one-way latency estimate.
     * @param config Control-loop parameters.
     */
    HacAligner(TspChip &parent, TspChip &child, LinkId link,
               double latency_cycles, HacAlignerConfig config = {});

    ~HacAligner();

    /** Begin periodic updates. */
    void start();

    /** Cease sending updates (pending ones still deliver). */
    void stop() { active_ = false; }

    /** Most recent observed child-vs-parent misalignment in cycles. */
    int lastDelta() const { return lastDelta_; }

    /** Number of updates the child has applied. */
    std::uint64_t updatesApplied() const { return updates_; }

    /** History of |delta| values (for convergence analysis). */
    const Accumulator &deltaMagnitude() const { return deltaMag_; }

    /**
     * True once the last `window` observed deltas were all within
     * kHacConvergedTolCycles.
     */
    bool converged(unsigned window = 4) const;

  private:
    void sendUpdate();
    void childHandler(const ArrivedFlit &af);

    TspChip &parent_;
    TspChip &child_;
    LinkId link_;
    unsigned childPort_;
    /** The characterized latency, rounded once to whole cycles. */
    long latencyCycles_;
    HacAlignerConfig config_;
    bool active_ = false;

    int lastDelta_ = 0;
    unsigned consecutiveSmall_ = 0;
    std::uint64_t updates_ = 0;
    std::uint32_t rounds_ = 0; ///< update rounds sent (span sequence)
    Accumulator deltaMag_;
};

} // namespace tsm

#endif // TSM_SYNC_HAC_ALIGNER_HH
