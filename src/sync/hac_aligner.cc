#include "sync/hac_aligner.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace tsm {

HacAligner::HacAligner(TspChip &parent, TspChip &child, LinkId link,
                       double latency_cycles, HacAlignerConfig config)
    : parent_(parent), child_(child), link_(link),
      latencyCycles_(std::lround(latency_cycles)), config_(config)
{
    const Link &l = parent.network().topo().links()[link];
    TSM_ASSERT((l.a == parent.id() && l.b == child.id()) ||
                   (l.b == parent.id() && l.a == child.id()),
               "aligner endpoints do not match the link");
    childPort_ = l.portAt(child.id());
    child_.setControlHandler(
        childPort_,
        [this](unsigned, const ArrivedFlit &af) { childHandler(af); });
}

HacAligner::~HacAligner()
{
    child_.setControlHandler(childPort_, nullptr);
}

void
HacAligner::start()
{
    active_ = true;
    sendUpdate();
}

void
HacAligner::sendUpdate()
{
    if (!active_)
        return;
    // Each alignment round is a (tiny) causal transfer of its own:
    // stamp the update flit so the child-side hac_adj can be tied back
    // to the parent-side hac_tx that caused it.
    const SpanId round_span =
        transferSpan(kFlowHacExchange, std::uint32_t(rounds_++));
    // One read of the parent's clock serves the HAC value sent and the
    // next round's tick.
    const Cycle local = parent_.localCycle();
    const unsigned hac = parent_.hacAt(local);
    Flit update;
    update.flow = kFlowHacExchange;
    update.seq = 2; // alignment update (probes use 0/1)
    update.meta = hac;
    update.span = round_span;
    parent_.network().controlTransmit(parent_.id(), link_,
                                      std::move(update));
    // Schedule the next periodic update on the parent's clock.
    EventQueue &eq = parent_.network().eventq();
    if (eq.tracer().wants(TraceCat::Sync))
        eq.tracer().emit({eq.now(), 0, TraceCat::Sync, TraceOp::HacTx,
                          parent_.id(), std::int64_t(hac),
                          std::int64_t(child_.id()), round_span});
    eq.post(parent_.clock().cycleToTick(local + config_.updatePeriodCycles),
            [](void *aligner, std::uint64_t) {
                static_cast<HacAligner *>(aligner)->sendUpdate();
            },
            this, 0, kSpanNone, EventKind::HacUpdate);
}

void
HacAligner::childHandler(const ArrivedFlit &af)
{
    if (af.flit.seq != 2)
        return;
    // Expected child HAC if perfectly aligned: parent's transmitted
    // value advanced by the link flight time.
    const long expected =
        (long(af.flit.meta) + latencyCycles_) % long(kHacPeriodCycles);
    long diff = expected - long(child_.hac());
    // Map to signed [-period/2, period/2).
    diff %= long(kHacPeriodCycles);
    if (diff < -long(kHacPeriodCycles) / 2)
        diff += long(kHacPeriodCycles);
    if (diff >= long(kHacPeriodCycles) / 2)
        diff -= long(kHacPeriodCycles);

    lastDelta_ = int(diff);
    deltaMag_.add(std::abs(double(diff)));
    if (std::abs(diff) <= kHacConvergedTolCycles)
        ++consecutiveSmall_;
    else
        consecutiveSmall_ = 0;

    const int step = int(std::clamp<long>(diff, -config_.maxAdjustPerUpdate,
                                          config_.maxAdjustPerUpdate));
    if (step != 0)
        child_.adjustHac(step);
    ++updates_;
    EventQueue &eq = child_.network().eventq();
    // Payload: observed misalignment and the (rate-limited) correction
    // actually applied — the drift telemetry the profiler collects.
    if (eq.tracer().wants(TraceCat::Sync))
        eq.tracer().emit({eq.now(), 0, TraceCat::Sync, TraceOp::HacAdj,
                          child_.id(), std::int64_t(diff),
                          std::int64_t(step), af.flit.span});
}

bool
HacAligner::converged(unsigned window) const
{
    return consecutiveSmall_ >= window;
}

} // namespace tsm
