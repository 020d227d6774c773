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

std::vector<ReservationLedger::Occupant>::const_iterator
ReservationLedger::firstEndingAfter(const std::vector<Occupant> &dir,
                                    Cycle c) const
{
    const Cycle lo = c >= window_ ? c - window_ + 1 : 0;
    return std::lower_bound(
        dir.begin(), dir.end(), lo,
        [](const Occupant &o, Cycle v) { return o.start < v; });
}

Cycle
ReservationLedger::earliestFree(LinkId link, bool from_a,
                                Cycle earliest) const
{
    const auto &dir = dirs_[index(link, from_a)];
    Cycle cand = earliest;
    // A window starting at `cand` conflicts with any reservation r
    // with r.start < cand + window and r.start + window > cand.
    auto it = firstEndingAfter(dir, cand);
    while (it != dir.end() && it->start < cand + window_) {
        // Overlap: jump past this reservation and re-check.
        cand = it->start + window_;
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
ReservationLedger::reserve(LinkId link, bool from_a, Cycle start,
                           FlowId owner)
{
    auto &dir = dirs_[index(link, from_a)];
    TSM_ASSERT(free(link, from_a, start),
               "link-cycle conflict: double-booked serialization window");
    // Reservations arrive nearly in start order: find the slot from
    // the back.
    auto pos = dir.end();
    while (pos != dir.begin() && std::prev(pos)->start > start)
        --pos;
    dir.insert(pos, {start, owner});
    ++total_;
    if (start + window_ > horizon_)
        horizon_ = start + window_;
}

std::span<const ReservationLedger::Occupant>
ReservationLedger::occupantsInRange(LinkId link, bool from_a,
                                    Cycle from, Cycle to) const
{
    const auto &dir = dirs_[index(link, from_a)];
    const auto first = firstEndingAfter(dir, from);
    auto last = first;
    while (last != dir.end() && last->start < to)
        ++last;
    return {first, last};
}

} // namespace tsm
