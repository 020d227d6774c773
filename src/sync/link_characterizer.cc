#include "sync/link_characterizer.hh"

#include <cmath>

#include "common/log.hh"

namespace tsm {

LinkCharacterizer::LinkCharacterizer(TspChip &origin, TspChip &peer,
                                     LinkId link)
    : origin_(origin), peer_(peer), link_(link)
{
    const Link &l = origin.network().topo().links()[link];
    TSM_ASSERT((l.a == origin.id() && l.b == peer.id()) ||
                   (l.b == origin.id() && l.a == peer.id()),
               "characterizer endpoints do not match the link");
    originPort_ = l.portAt(origin.id());
    peerPort_ = l.portAt(peer.id());
    nominalRoundTripCycles_ =
        2.0 * double(linkPropagationPs(l.cls)) / kCorePeriodPs;

    origin_.setControlHandler(
        originPort_,
        [this](unsigned, const ArrivedFlit &af) { originHandler(af); });
    peer_.setControlHandler(
        peerPort_,
        [this](unsigned, const ArrivedFlit &af) { peerHandler(af); });
}

LinkCharacterizer::~LinkCharacterizer()
{
    origin_.setControlHandler(originPort_, nullptr);
    peer_.setControlHandler(peerPort_, nullptr);
}

void
LinkCharacterizer::start(unsigned iterations)
{
    remaining_ = iterations;
    // Begin after a short warmup so both chips' clocks are past their
    // power-up phase offsets (the HAC reads 0 before its first edge).
    EventQueue &eq = origin_.network().eventq();
    eq.post(
        eq.now() + kPsPerUs,
        [](void *lc, std::uint64_t) {
            static_cast<LinkCharacterizer *>(lc)->sendProbe();
        },
        this, 0, kSpanNone, EventKind::SyncProbe);
}

void
LinkCharacterizer::sendProbe()
{
    // Transmit the origin's instantaneous HAC value.
    probeDepartCycle_ = origin_.localCycle();
    Flit probe;
    probe.flow = kFlowHacExchange;
    probe.seq = 0; // probe
    probe.meta = origin_.hac();
    origin_.network().controlTransmit(origin_.id(), link_, std::move(probe));
}

void
LinkCharacterizer::peerHandler(const ArrivedFlit &af)
{
    if (af.flit.seq != 0)
        return;
    // Reflect the received HAC value immediately (hardware path).
    Flit reply;
    reply.flow = kFlowHacExchange;
    reply.seq = 1; // reflection
    reply.meta = af.flit.meta;
    peer_.network().controlTransmit(peer_.id(), link_, std::move(reply));
}

void
LinkCharacterizer::originHandler(const ArrivedFlit &af)
{
    if (af.flit.seq != 1)
        return;
    // Compare the reflected value with the free-running HAC: the
    // difference is the round trip modulo the HAC period (paper §3.1).
    const int hac_now = int(origin_.hac());
    const int sent = int(af.flit.meta);
    int rt_mod = (hac_now - sent) % int(kHacPeriodCycles);
    if (rt_mod < 0)
        rt_mod += int(kHacPeriodCycles);

    // Resolve the unknown multiple of the period with the design-time
    // nominal latency (the paper: "modulo a multiple of the HAC
    // period").
    double best = rt_mod;
    double best_err = std::abs(best - nominalRoundTripCycles_);
    for (int k = 1; k < 8; ++k) {
        const double cand = rt_mod + k * double(kHacPeriodCycles);
        const double err = std::abs(cand - nominalRoundTripCycles_);
        if (err < best_err) {
            best = cand;
            best_err = err;
        }
    }
    stats_.add(best / 2.0);

    if (--remaining_ > 0)
        sendProbe();
}

} // namespace tsm
