#include "ssn/reservation.hh"

#include <algorithm>

#include "common/log.hh"

namespace tsm {

ReservationLedger::ReservationLedger(std::size_t num_links,
                                     Cycle window_cycles)
    : dirs_(num_links * 2), window_(window_cycles)
{
    TSM_ASSERT(window_cycles > 0, "zero-width serialization window");
}

Cycle
ReservationLedger::earliestFree(LinkId link, bool from_a,
                                Cycle earliest) const
{
    const auto &dir = dirs_[index(link, from_a)];
    Cycle cand = earliest;
    // A window starting at `cand` conflicts with any reservation r
    // with r.start < cand + window and r.start + window > cand.
    auto it = std::lower_bound(dir.begin(), dir.end(),
                               cand >= window_ ? cand - window_ + 1 : 0);
    while (it != dir.end() && *it < cand + window_) {
        // Overlap: jump past this reservation and re-check.
        cand = *it + window_;
        ++it;
    }
    return cand;
}

bool
ReservationLedger::free(LinkId link, bool from_a, Cycle start) const
{
    return earliestFree(link, from_a, start) == start;
}

void
ReservationLedger::reserve(LinkId link, bool from_a, Cycle start)
{
    auto &dir = dirs_[index(link, from_a)];
    TSM_ASSERT(free(link, from_a, start),
               "link-cycle conflict: double-booked serialization window");
    // Reservations arrive nearly in start order: find the slot from
    // the back.
    auto pos = dir.end();
    while (pos != dir.begin() && *std::prev(pos) > start)
        --pos;
    dir.insert(pos, start);
    ++total_;
    if (start + window_ > horizon_)
        horizon_ = start + window_;
}

} // namespace tsm
