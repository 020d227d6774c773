/**
 * @file
 * validateSchedule on hand-corrupted schedules: every failure kind is
 * caught, and the report (ok, windows checked, first violation) is
 * pinned exactly.
 */

#include <gtest/gtest.h>

#include "ssn/scheduler.hh"

namespace tsm {
namespace {

// makeRing(4): link i joins tsp i (end a) and tsp (i + 1) % 4 (end b).
constexpr Cycle kFlight = flightCycles(LinkClass::IntraNode);

ScheduledHop
hop(LinkId link, TspId from, Cycle depart)
{
    return {link, from, depart, depart + kFlight};
}

ScheduledVector
vec(FlowId flow, std::uint32_t seq, std::vector<ScheduledHop> hops)
{
    ScheduledVector sv;
    sv.flow = flow;
    sv.seq = seq;
    sv.hops = std::move(hops);
    return sv;
}

/** Two 2-hop vectors 0 -> 1 -> 2 and one 1-hop vector 3 -> 2. */
NetworkSchedule
baseSchedule()
{
    const Cycle fwd = kFlight + forwardCycles();
    NetworkSchedule s;
    s.vectors.push_back(vec(1, 0, {hop(0, 0, 0), hop(1, 1, fwd)}));
    s.vectors.push_back(vec(1, 1, {hop(0, 0, 24), hop(1, 1, fwd + 24)}));
    s.vectors.push_back(vec(2, 0, {hop(2, 3, 0)}));
    return s;
}

void
expectReport(const NetworkSchedule &s, bool ok, std::uint64_t windows,
             const std::string &violation)
{
    const Topology topo = Topology::makeRing(4);
    const ValidationReport r = validateSchedule(s, topo);
    EXPECT_EQ(r.ok, ok);
    EXPECT_EQ(r.windowsChecked, windows);
    EXPECT_EQ(r.firstViolation, violation);
}

TEST(ValidateSchedule, HandBuiltScheduleIsClean)
{
    expectReport(baseSchedule(), true, 5, "");
}

TEST(ValidateSchedule, EmptyItinerary)
{
    NetworkSchedule s = baseSchedule();
    s.vectors[1].hops.clear();
    expectReport(s, false, 3, "flow 1 seq 1: empty itinerary");
}

TEST(ValidateSchedule, BrokenHopChain)
{
    NetworkSchedule s = baseSchedule();
    s.vectors[0].hops[1].from = 2;
    expectReport(s, false, 4,
                 "flow 1 seq 0: hop 1 departs from tsp2, expected tsp1");
}

TEST(ValidateSchedule, LinkNotAtTheChip)
{
    NetworkSchedule s = baseSchedule();
    s.vectors[0].hops[1].link = 3; // joins tsp3 and tsp0, not tsp1
    expectReport(s, false, 4,
                 "flow 1 seq 0: hop 1 uses a link not at tsp1");
}

TEST(ValidateSchedule, CausalityBelowTheForwardPipeline)
{
    NetworkSchedule s = baseSchedule();
    s.vectors[0].hops[1] = hop(1, 1, kFlight + 100);
    expectReport(s, false, 5,
                 "flow 1 seq 0: hop 1 departs 100 cycles after landing "
                 "(< forward pipeline 228)");
}

TEST(ValidateSchedule, InconsistentArrival)
{
    NetworkSchedule s = baseSchedule();
    s.vectors[2].hops[0].arrive -= 1;
    expectReport(s, false, 5, "flow 2 seq 0: hop 0 arrival inconsistent");
}

TEST(ValidateSchedule, OverlappingWindowsNameTheEarlierFlow)
{
    NetworkSchedule s = baseSchedule();
    // Same direction as flow 1's windows at 0 and 24: overlaps [24, 48).
    s.vectors.push_back(vec(3, 0, {hop(0, 0, 30)}));
    expectReport(s, false, 6,
                 "flow 3 seq 0: serialization window at cycle 30 on link "
                 "0 overlaps flow 1");
}

TEST(ValidateSchedule, OppositeDirectionsNeverOverlap)
{
    NetworkSchedule s = baseSchedule();
    s.vectors.push_back(vec(3, 0, {hop(0, 1, 0)}));
    s.vectors.push_back(vec(3, 1, {hop(0, 1, 24)}));
    expectReport(s, true, 7, "");
}

TEST(ValidateSchedule, WindowsTouchingEndToStartDoNotOverlap)
{
    NetworkSchedule s;
    s.vectors.push_back(vec(1, 0, {hop(0, 0, 100)}));
    s.vectors.push_back(vec(2, 0, {hop(0, 0, 76)}));
    s.vectors.push_back(vec(3, 0, {hop(0, 0, 124)}));
    expectReport(s, true, 3, "");
    s.vectors.push_back(vec(4, 0, {hop(0, 0, 123)}));
    expectReport(s, false, 4,
                 "flow 4 seq 0: serialization window at cycle 123 on link "
                 "0 overlaps flow 1");
}

TEST(ValidateSchedule, OverlapNamesTheLowestStartThenTheFirstRecorded)
{
    NetworkSchedule s;
    s.vectors.push_back(vec(5, 0, {hop(0, 0, 40)}));
    s.vectors.push_back(vec(6, 0, {hop(0, 0, 0)}));
    s.vectors.push_back(vec(7, 0, {hop(0, 0, 20)}));
    expectReport(s, false, 3,
                 "flow 7 seq 0: serialization window at cycle 20 on link "
                 "0 overlaps flow 6");

    // Two windows at one start: the first one recorded is named.
    NetworkSchedule d;
    d.vectors.push_back(vec(8, 0, {hop(0, 0, 0)}));
    d.vectors.push_back(vec(9, 0, {hop(0, 0, 0)}));
    d.vectors.push_back(vec(10, 0, {hop(0, 0, 0)}));
    expectReport(d, false, 3,
                 "flow 9 seq 0: serialization window at cycle 0 on link 0 "
                 "overlaps flow 8");
}

TEST(ValidateSchedule, TheFirstViolationInScheduleOrderWins)
{
    // An overlap on vector 1 precedes a causality break on vector 2.
    NetworkSchedule s = baseSchedule();
    s.vectors[1].hops[0] = hop(0, 0, 10);
    s.vectors[1].hops[1] = hop(1, 1, 10 + kFlight + forwardCycles());
    s.vectors.push_back(vec(4, 0, {hop(2, 2, 500), hop(3, 3, 500)}));
    expectReport(s, false, 7,
                 "flow 1 seq 1: serialization window at cycle 10 on link "
                 "0 overlaps flow 1");

    // Within one hop the chain checks come before the window check.
    NetworkSchedule t = baseSchedule();
    t.vectors[0].hops[1] = hop(1, 1, kFlight + forwardCycles() + 34);
    t.vectors[1].hops[1].arrive += 1;
    expectReport(t, false, 5, "flow 1 seq 1: hop 1 arrival inconsistent");

    // A broken chain drops the rest of that vector from the ledger.
    NetworkSchedule u = baseSchedule();
    u.vectors[0].hops[1].from = 3;
    u.vectors[1].hops[1] = hop(1, 1, kFlight + forwardCycles());
    expectReport(u, false, 4,
                 "flow 1 seq 0: hop 1 departs from tsp3, expected tsp1");
}

} // namespace
} // namespace tsm
