/**
 * @file
 * The compile-time link-cycle reservation ledger.
 *
 * Paper §4.4: software explicitly schedules vectors on each physical
 * link "taking into account the channel bandwidth and latency of each
 * channel to ensure we never overflow the transmitter or underflow
 * the receiver". This ledger is the scheduler's source of truth: one
 * serialization window per vector per link direction, with conflict
 * detection. A schedule admitted by this ledger can never need
 * arbitration or back-pressure — which is also why it can never
 * deadlock: no vector ever holds one link while waiting for another;
 * every resource it will use is reserved, disjointly, in advance.
 */

#ifndef TSM_SSN_RESERVATION_HH
#define TSM_SSN_RESERVATION_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "net/topology.hh"

namespace tsm {

/**
 * Serialization window per vector in scheduler cycles: the ceiling of
 * one vector's wire serialization time (kVectorSerializationPs) in
 * core cycles. Shared by the ledger, the schedule validator, the
 * static analyzer and the what-if engine so they can never disagree
 * about how long a reservation occupies a link direction.
 */
inline constexpr Cycle kScheduleWindowCycles = 24;

/**
 * Per-link-direction occupancy of serialization windows, in scheduler
 * cycles. Each reservation occupies [start, start + window).
 */
class ReservationLedger
{
  public:
    /**
     * @param num_links Number of links in the topology (two
     *        directions tracked per link).
     * @param window_cycles Serialization window per vector (24).
     */
    explicit ReservationLedger(std::size_t num_links,
                               Cycle window_cycles = kScheduleWindowCycles);

    /**
     * Earliest cycle >= `earliest` at which direction (link, from_a)
     * has a free serialization window.
     */
    Cycle earliestFree(LinkId link, bool from_a, Cycle earliest) const;

    /**
     * Reserve [start, start+window) on the direction. Panics on
     * overlap — the scheduler must have consulted earliestFree.
     */
    void reserve(LinkId link, bool from_a, Cycle start);

    /** True if [start, start+window) is free on the direction. */
    bool free(LinkId link, bool from_a, Cycle start) const;

    /** Total reserved windows across all directions. */
    std::uint64_t totalReservations() const { return total_; }

    /** Reserved windows on one direction. */
    std::size_t
    reservationsOn(LinkId link, bool from_a) const
    {
        return dirs_[index(link, from_a)].size();
    }

    /**
     * The last cycle at which any reservation ends (makespan of the
     * communication schedule), or 0 if empty.
     */
    Cycle horizon() const { return horizon_; }

    Cycle window() const { return window_; }

  private:
    std::size_t
    index(LinkId link, bool from_a) const
    {
        return std::size_t(link) * 2 + (from_a ? 0 : 1);
    }

    /**
     * Window start cycles per direction, sorted. Windows on one
     * direction are disjoint, so start order is also end order.
     */
    std::vector<std::vector<Cycle>> dirs_;
    Cycle window_;
    std::uint64_t total_ = 0;
    Cycle horizon_ = 0;
};

} // namespace tsm

#endif // TSM_SSN_RESERVATION_HH
