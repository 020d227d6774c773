#include "prof/profiler.hh"

#include <algorithm>
#include <cmath>

namespace tsm {

Cycle
ChipAccount::busyTotal() const
{
    Cycle total = 0;
    for (unsigned u = 0; u < kNumFuncUnits; ++u)
        total += busy[u];
    return total;
}

void
ProfilerSink::event(const TraceEvent &ev)
{
    ++events_;
    spanPs_ = std::max(spanPs_, ev.tick + ev.dur);
    switch (ev.cat) {
      case TraceCat::Chip:
        chipEvent(ev);
        break;
      case TraceCat::Net:
        netEvent(ev);
        break;
      case TraceCat::Ssn:
        ssnEvent(ev);
        break;
      case TraceCat::Sync:
        syncEvent(ev);
        break;
      default:
        break;
    }
}

/**
 * Charge the pending instruction's occupancy within the [pend.cycle,
 * until) gap to its class, and the remainder of the gap to idle. The
 * single-sequence chip model issues instructions strictly in cycle
 * order, so consecutive gaps tile the chip's span exactly — which is
 * what makes busy + stall + idle == total an invariant rather than an
 * approximation.
 */
void
ProfilerSink::charge(ChipAccount &acct, Pending &pend, Cycle until)
{
    if (!pend.valid)
        return;
    const Cycle gap = until >= pend.cycle ? until - pend.cycle : 0;
    const Cycle occupied = std::min(gap, pend.durCycles);
    switch (pend.cls) {
      case OpTimeClass::Busy:
        acct.busy[unsigned(pend.unit)] += occupied;
        break;
      case OpTimeClass::Stall:
        acct.stall += occupied;
        break;
      case OpTimeClass::Idle:
        acct.idle += occupied;
        break;
    }
    acct.idle += gap - occupied;
    pend.valid = false;
}

void
ProfilerSink::chipEvent(const TraceEvent &ev)
{
    const TspId chip = ev.actor;
    const Cycle cycle = Cycle(ev.b);
    ChipAccount &acct = chips_[chip];
    Pending &pend = pending_[chip];

    if (acct.instrs == 0 && !pend.valid)
        acct.firstCycle = cycle;
    charge(acct, pend, cycle);
    acct.lastCycle = std::max(acct.lastCycle, cycle);

    if (ev.op == TraceOp::Halt) {
        acct.halted = true;
        return;
    }

    Pending next;
    next.valid = true;
    next.cycle = cycle;
    next.durCycles = Cycle(std::llround(double(ev.dur) / kCorePeriodPs));
    if (ev.op == TraceOp::PollWait) {
        // A PollRecv that found nothing and is waiting for the next
        // poll epoch: time the chip spends blocked on the network.
        next.unit = FuncUnit::SXM;
        next.cls = OpTimeClass::Stall;
    } else {
        next.unit = opUnit(Op(ev.op));
        next.cls = opTimeClass(Op(ev.op));
        ++acct.instrs;
    }
    pend = next;
}

void
ProfilerSink::netEvent(const TraceEvent &ev)
{
    if (ev.op == TraceOp::Tx) {
        LinkAccount &acct = links_[LinkId(ev.actor)];
        ++acct.flits;
        acct.busyPs += Tick(std::llround(kVectorSerializationPs));
        // One leg of a causal transfer: its tx duration is
        // serialization plus flight, and any gap since the previous
        // leg's arrival was layover on the forwarding chip.
        if (ev.span != kSpanNone) {
            auto it = transfers_.find(spanParent(ev.span));
            if (it != transfers_.end()) {
                TransferRecord &tr = it->second;
                const Tick ser =
                    std::min(Tick(kVectorSerializationPs), ev.dur);
                tr.serializePs += ser;
                tr.flightPs += ev.dur - ser;
                if (tr.haveArrival && ev.tick >= tr.lastArrival)
                    tr.forwardPs += ev.tick - tr.lastArrival;
                ++tr.legs;
            }
        }
    } else if (ev.op == TraceOp::Rx) {
        if (ev.span != kSpanNone) {
            auto it = transfers_.find(spanParent(ev.span));
            if (it != transfers_.end()) {
                it->second.lastArrival = ev.tick;
                it->second.haveArrival = true;
            }
        }
        // Data flits queue here until their consuming Recv (a flit
        // with an Mbe still delivers — FEC detects but does not retry).
        if (isDataFlow(FlowId(ev.a)))
            inFlight_[{FlowId(ev.a), std::uint32_t(ev.b)}].push_back(
                {ev.tick, LinkId(ev.actor)});
    } else if (ev.op == TraceOp::Mbe) {
        ++links_[LinkId(ev.actor)].mbes;
        // Remember which link corrupted this (flow,seq): the payload
        // is dropped later, at the consuming Recv, and the drop is
        // charged back to this link.
        pendingMbe_[{FlowId(ev.a), std::uint32_t(ev.b)}].push_back(
            LinkId(ev.actor));
        if (ev.span != kSpanNone) {
            auto it = transfers_.find(spanParent(ev.span));
            if (it != transfers_.end())
                ++it->second.mbes;
        }
    }
}

void
ProfilerSink::ssnEvent(const TraceEvent &ev)
{
    if (ev.op == TraceOp::Send) {
        ++sendEvents_;
        return;
    }
    if (ev.op == TraceOp::SpanOpen) {
        TransferRecord &tr = transfers_[ev.span];
        tr.flow = FlowId(ev.a);
        tr.seq = std::uint32_t(ev.b);
        tr.src = ev.actor;
        tr.openTick = ev.tick;
        return;
    }
    if (ev.op == TraceOp::SpanClose) {
        auto it = transfers_.find(ev.span);
        if (it != transfers_.end()) {
            TransferRecord &tr = it->second;
            tr.dst = ev.actor;
            tr.closeTick = ev.tick;
            tr.waitPs = tr.haveArrival && ev.tick >= tr.lastArrival
                            ? ev.tick - tr.lastArrival
                            : 0;
            tr.closed = true;
        }
        return;
    }
    if (ev.op != TraceOp::Recv && ev.op != TraceOp::Corrupt)
        return; // schedule-replay markers (Hop/Flow/Makespan)

    if (ev.op == TraceOp::Corrupt) {
        // This Recv is where an earlier MBE finally costs a payload:
        // attribute the drop to the link that corrupted the vector.
        auto pm = pendingMbe_.find({FlowId(ev.a), std::uint32_t(ev.b)});
        if (pm != pendingMbe_.end() && !pm->second.empty()) {
            ++links_[pm->second.front()].dropped;
            pm->second.erase(pm->second.begin());
            if (pm->second.empty())
                pendingMbe_.erase(pm);
        }
    }

    ++recvEvents_;
    lastRecvTick_ = std::max(lastRecvTick_, ev.tick);

    // Pair this consuming Recv with the oldest matching arrival: the
    // difference is how long the flit sat in the receive queue, i.e.
    // the margin the SSN schedule budgeted at this receiver.
    auto it = inFlight_.find({FlowId(ev.a), std::uint32_t(ev.b)});
    if (it == inFlight_.end() || it->second.empty())
        return;
    const auto [arrivedAt, link] = it->second.front();
    it->second.erase(it->second.begin());
    if (it->second.empty())
        inFlight_.erase(it);
    const Tick delay = ev.tick >= arrivedAt ? ev.tick - arrivedAt : 0;
    queueAll_.add(delay);
    queueDelay_[link].add(delay);
}

void
ProfilerSink::syncEvent(const TraceEvent &ev)
{
    if (ev.op == TraceOp::HacTx) {
        ++hac_.updatesSent;
    } else if (ev.op == TraceOp::HacAdj) {
        ++hac_.adjustments;
        const std::uint64_t mag = std::uint64_t(std::llabs(ev.a));
        hac_.sumAbsDelta += mag;
        hac_.maxAbsDelta = std::max(hac_.maxAbsDelta, mag);
        hac_.sumAbsStep += std::uint64_t(std::llabs(ev.b));
        if (hac_.timeline.size() < HacAccount::kTimelineCap)
            hac_.timeline.push_back({ev.tick, int(ev.a), int(ev.b)});
    }
}

void
ProfilerSink::finish()
{
    // Close out instructions still pending at end of stream: charge
    // their full modeled occupancy and extend the chip's span to
    // cover it.
    for (auto &[chip, pend] : pending_) {
        if (!pend.valid)
            continue;
        ChipAccount &acct = chips_[chip];
        const Cycle end = pend.cycle + pend.durCycles;
        charge(acct, pend, end);
        acct.lastCycle = std::max(acct.lastCycle, end);
    }
}

const Log2Histogram *
ProfilerSink::queueDelay(LinkId link) const
{
    auto it = queueDelay_.find(link);
    return it == queueDelay_.end() ? nullptr : &it->second;
}

std::uint64_t
ProfilerSink::totalFlits() const
{
    std::uint64_t total = 0;
    for (const auto &[link, acct] : links_)
        total += acct.flits;
    return total;
}

} // namespace tsm
