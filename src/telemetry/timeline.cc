#include "telemetry/timeline.hh"

#include <algorithm>
#include <cmath>

#include "telemetry/phase.hh"

namespace tsm {

TimelineSampler::TimelineSampler(Cycle windowCycles)
    : windowCycles_(windowCycles ? windowCycles : kDefaultWindowCycles)
{
}

Cycle
TimelineSampler::tickToCycle(Tick tick) const
{
    // Truncating division at the nominal core period: an event landing
    // exactly on a window-boundary cycle opens the new window.
    return Cycle(double(tick) / kCorePeriodPs);
}

std::uint64_t
TimelineSampler::numWindows() const
{
    std::uint64_t last = 0;
    bool any = false;
    for (const auto &[chip, windows] : chips_)
        if (!windows.empty()) {
            last = std::max(last, windows.rbegin()->first);
            any = true;
        }
    for (const auto &[link, windows] : links_)
        if (!windows.empty()) {
            last = std::max(last, windows.rbegin()->first);
            any = true;
        }
    if (!hac_.empty()) {
        last = std::max(last, hac_.rbegin()->first);
        any = true;
    }
    return any ? last + 1 : 0;
}

void
TimelineSampler::event(const TraceEvent &ev)
{
    ++events_;
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
      case TraceCat::Runtime:
        if (markers_.size() < kMarkerCap)
            markers_.push_back({ev.tick, ev.dur, ev.cat, ev.op, ev.actor});
        break;
      default:
        break;
    }
}

void
TimelineSampler::chargeRange(TspId chip, Cycle from, Cycle to,
                             OpTimeClass cls, FuncUnit unit)
{
    if (to <= from)
        return;
    spanCycles_ = std::max(spanCycles_, to);
    auto &windows = chips_[chip];
    Cycle at = from;
    while (at < to) {
        const std::uint64_t w = windowOf(at);
        const Cycle windowEnd = (w + 1) * windowCycles_;
        const Cycle slice = std::min(to, windowEnd) - at;
        ChipWindow &cw = windows[w];
        switch (cls) {
          case OpTimeClass::Busy:
            cw.busy[unsigned(unit)] += slice;
            break;
          case OpTimeClass::Stall:
            cw.stall += slice;
            break;
          case OpTimeClass::Idle:
            cw.idle += slice;
            break;
        }
        at += slice;
    }
}

void
TimelineSampler::charge(TspId chip, Pending &pend, Cycle until)
{
    if (!pend.valid)
        return;
    // Identical arithmetic to ProfilerSink::charge, split per window:
    // the occupied prefix of the gap goes to the instruction's class,
    // the remainder is idle by definition.
    const Cycle gap = until >= pend.cycle ? until - pend.cycle : 0;
    const Cycle occupied = std::min(gap, pend.durCycles);
    chargeRange(chip, pend.cycle, pend.cycle + occupied, pend.cls,
                pend.unit);
    chargeRange(chip, pend.cycle + occupied, until, OpTimeClass::Idle,
                pend.unit);
    pend.valid = false;
}

void
TimelineSampler::chipEvent(const TraceEvent &ev)
{
    const TspId chip = ev.actor;
    const Cycle cycle = Cycle(ev.b);
    Pending &pend = pending_[chip];
    charge(chip, pend, cycle);

    if (ev.op == TraceOp::Halt)
        return;

    Pending next;
    next.valid = true;
    next.cycle = cycle;
    next.durCycles = Cycle(std::llround(double(ev.dur) / kCorePeriodPs));
    if (ev.op == TraceOp::PollWait) {
        next.unit = FuncUnit::SXM;
        next.cls = OpTimeClass::Stall;
    } else {
        next.unit = opUnit(Op(ev.op));
        next.cls = opTimeClass(Op(ev.op));
        ++chips_[chip][windowOf(cycle)].instrs;
    }
    pend = next;
}

void
TimelineSampler::netEvent(const TraceEvent &ev)
{
    const LinkId link = LinkId(ev.actor);
    const std::uint64_t w = windowOf(tickToCycle(ev.tick));
    if (ev.op == TraceOp::Tx) {
        LinkWindow &lw = links_[link][w];
        ++lw.flits;
        // Same per-flit serialization charge as LinkAccount::busyPs,
        // attributed whole to the window the transmit starts in, so
        // window sums match the whole-run account exactly.
        lw.busyPs += Tick(std::llround(kVectorSerializationPs));
        spanCycles_ = std::max(spanCycles_, tickToCycle(ev.tick) + 1);
    } else if (ev.op == TraceOp::Rx) {
        if (isDataFlow(FlowId(ev.a))) {
            inFlight_[{FlowId(ev.a), std::uint32_t(ev.b)}].push_back(
                {ev.tick, link});
            const unsigned depth = ++queueDepth_[link];
            LinkWindow &lw = links_[link][w];
            lw.queueHwm = std::max(lw.queueHwm, depth);
            spanCycles_ = std::max(spanCycles_, tickToCycle(ev.tick) + 1);
        }
    } else if (ev.op == TraceOp::Mbe) {
        ++links_[link][w].mbes;
    }
}

void
TimelineSampler::ssnEvent(const TraceEvent &ev)
{
    if (ev.op == TraceOp::Flow || ev.op == TraceOp::Makespan) {
        if (markers_.size() < kMarkerCap)
            markers_.push_back({ev.tick, ev.dur, ev.cat, ev.op, ev.actor});
        return;
    }
    if (ev.op != TraceOp::Recv && ev.op != TraceOp::Corrupt)
        return;
    // A consuming Recv drains the oldest matching arrival from its
    // link's receive queue.
    auto it = inFlight_.find({FlowId(ev.a), std::uint32_t(ev.b)});
    if (it == inFlight_.end() || it->second.empty())
        return;
    const LinkId link = it->second.front().second;
    it->second.erase(it->second.begin());
    if (it->second.empty())
        inFlight_.erase(it);
    auto qd = queueDepth_.find(link);
    if (qd != queueDepth_.end() && qd->second > 0)
        --qd->second;
}

void
TimelineSampler::syncEvent(const TraceEvent &ev)
{
    if (ev.op != TraceOp::HacAdj)
        return;
    HacWindow &hw = hac_[windowOf(tickToCycle(ev.tick))];
    ++hw.adjustments;
    const std::uint64_t mag = std::uint64_t(std::llabs(ev.a));
    hw.sumAbsDelta += mag;
    hw.maxAbsDelta = std::max(hw.maxAbsDelta, mag);
    hw.sumAbsStep += std::uint64_t(std::llabs(ev.b));
    spanCycles_ = std::max(spanCycles_, tickToCycle(ev.tick) + 1);
}

void
TimelineSampler::finish()
{
    // Close out instructions still pending at end of stream, exactly
    // as the profiler does: their full modeled occupancy is charged.
    for (auto &[chip, pend] : pending_) {
        if (!pend.valid)
            continue;
        charge(chip, pend, pend.cycle + pend.durCycles);
    }
}

Json
TimelineSampler::report(const PhaseAnalysis *analysis) const
{
    Json root = documentHead(kTimelineSchema);
    root.set("window_cycles", windowCycles_);
    root.set("window_ps",
             std::int64_t(std::llround(double(windowCycles_) *
                                       kCorePeriodPs)));
    root.set("windows", numWindows());
    root.set("span_cycles", spanCycles_);
    root.set("events", events_);

    const double windowPs = double(windowCycles_) * kCorePeriodPs;

    {
        Json chips = Json::array();
        for (const auto &[id, windows] : chips_) {
            Json c = Json::object();
            c.set("id", id);
            Json ws = Json::array();
            for (const auto &[w, cw] : windows) {
                Json jw = Json::object();
                jw.set("w", w);
                Json busy = Json::object();
                for (unsigned u = 0; u < kNumFuncUnits; ++u)
                    busy.set(funcUnitName(FuncUnit(u)), cw.busy[u]);
                jw.set("busy", std::move(busy));
                jw.set("stall", cw.stall);
                jw.set("idle", cw.idle);
                jw.set("instrs", cw.instrs);
                ws.push(std::move(jw));
            }
            c.set("windows", std::move(ws));
            chips.push(std::move(c));
        }
        root.set("chips", std::move(chips));
    }

    {
        Json links = Json::array();
        for (const auto &[id, windows] : links_) {
            std::uint64_t flits = 0;
            for (const auto &[w, lw] : windows)
                flits += lw.flits;
            Json l = Json::object();
            l.set("id", id);
            l.set("flits", flits);
            Json ws = Json::array();
            for (const auto &[w, lw] : windows) {
                Json jw = Json::object();
                jw.set("w", w);
                jw.set("flits", lw.flits);
                jw.set("busy_ps", lw.busyPs);
                jw.set("util", windowPs > 0 ? double(lw.busyPs) / windowPs
                                            : 0.0);
                jw.set("queue_hwm", lw.queueHwm);
                jw.set("mbes", lw.mbes);
                ws.push(std::move(jw));
            }
            l.set("windows", std::move(ws));
            links.push(std::move(l));
        }
        root.set("links", std::move(links));
    }

    {
        Json hac = Json::array();
        for (const auto &[w, hw] : hac_) {
            Json jw = Json::object();
            jw.set("w", w);
            jw.set("adjustments", hw.adjustments);
            jw.set("sum_abs_delta", hw.sumAbsDelta);
            jw.set("max_abs_delta", hw.maxAbsDelta);
            jw.set("sum_abs_step", hw.sumAbsStep);
            hac.push(std::move(jw));
        }
        root.set("hac", std::move(hac));
    }

    {
        Json markers = Json::array();
        for (const TimelineMarker &m : markers_) {
            Json jm = Json::object();
            jm.set("tick", m.tick);
            jm.set("dur", m.dur);
            jm.set("cat", traceCatName(m.cat));
            jm.set("name", traceOpName(m.op));
            jm.set("actor", m.actor);
            markers.push(std::move(jm));
        }
        root.set("markers", std::move(markers));
    }

    if (analysis) {
        root.set("labels", windowLabelsJson(*analysis));
        root.set("phases", phasesJson(*analysis));
    }
    return root;
}

} // namespace tsm
