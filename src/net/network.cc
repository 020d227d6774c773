#include "net/network.hh"

#include <algorithm>

#include "common/log.hh"

namespace tsm {

namespace {

/**
 * Link `l`'s entry in an override map, or nullptr. Outside what-if and
 * FEC runs no link is overridden, so the hash probe is skipped.
 */
template <class T>
const T *
findOverride(const std::unordered_map<LinkId, T> &overrides, LinkId l)
{
    if (overrides.empty())
        return nullptr;
    const auto it = overrides.find(l);
    return it == overrides.end() ? nullptr : &it->second;
}

} // namespace

void
RxRing::reserve(std::size_t n)
{
    if (n <= cap_)
        return;
    auto slots = std::make_unique<ArrivedFlit[]>(n);
    std::uint32_t from = head_;
    for (std::uint32_t k = 0; k < size_; ++k) {
        slots[k] = std::move(slots_[from]);
        if (++from == cap_)
            from = 0;
    }
    slots_ = std::move(slots);
    head_ = 0;
    cap_ = std::uint32_t(n);
}

Network::Network(const Topology &topo, EventQueue &eq, const Rng &rng,
                 bool jitter_enabled)
    : topo_(&topo), eventq_(&eq), rng_(rng.fork(0x6e657477)),
      jitterEnabled_(jitter_enabled)
{
    directions_.assign(topo.links().size() * 2, Direction{});
    stats_.assign(topo.links().size(), LinkStats{});
    sinks_.assign(topo.numTsps(), nullptr);
}

void
Network::attachSink(TspId tsp, FlitSink *sink)
{
    TSM_ASSERT(tsp < sinks_.size(), "sink tsp out of range");
    sinks_[tsp] = sink;
}

std::size_t
Network::dirIndex(LinkId l, TspId src) const
{
    const Link &link = topo_->links()[l];
    TSM_ASSERT(src == link.a || src == link.b,
               "transmit from a TSP not on this link");
    return std::size_t(l) * 2 + (src == link.a ? 0 : 1);
}

Tick
Network::earliestDeparture(TspId src, LinkId l, Tick earliest) const
{
    return std::max(earliest, directions_[dirIndex(l, src)].txFreeAt);
}

Tick
Network::transmit(TspId src, LinkId l, Flit flit, Tick depart)
{
    TSM_ASSERT(l < topo_->links().size(), "bad link id");
    TSM_ASSERT(topo_->linkEnabled(l), "transmit on an out-of-service link");
    TSM_ASSERT(depart >= eventq_->now(), "transmit scheduled in the past");

    const Link &link = topo_->links()[l];
    Direction &dir = directions_[dirIndex(l, src)];
    TSM_ASSERT(depart >= dir.txFreeAt,
               "SSN invariant violated: link-cycle conflict on link {} — "
               "flow {} seq {} departs at {} while flow {} seq {} holds "
               "the transmitter until {}",
               l, flit.flow, flit.seq, depart, dir.occupant.flow,
               dir.occupant.seq, dir.txFreeAt);

    Tick ser = Tick(kVectorSerializationPs);
    Tick nominal_prop = linkPropagationPs(link.cls);
    if (const LinkTiming *lt = findOverride(linkTimings_, l)) {
        ser = lt->serializationPs;
        nominal_prop = lt->propagationPs;
    }
    dir.txFreeAt = depart + ser;
    dir.occupant = {flit.flow, flit.seq, flit.span, depart};

    LinkStats &st = stats_[l];
    ++st.flits;
    st.busyPs += ser;

    // FEC (paper §4.5): single-bit errors are corrected in situ with no
    // timing impact; multi-bit errors are detected and flagged.
    const ErrorModel *em = findOverride(linkErrorModels_, l);
    if (!em)
        em = &errorModel_;
    if (em->sbePerVector > 0.0 && rng_.chance(em->sbePerVector))
        ++st.sbeCorrected;
    if (em->mbePerVector > 0.0 && rng_.chance(em->mbePerVector)) {
        ++st.mbeDetected;
        flit.corrupt = true;
        if (eventq_->tracer().wants(TraceCat::Net))
            eventq_->tracer().emit({depart, 0, TraceCat::Net, TraceOp::Mbe,
                                    l, std::int64_t(flit.flow),
                                    std::int64_t(flit.seq), flit.span});
    }

    const Tick arrival = depart + ser + jittered(link, nominal_prop);
    if (eventq_->tracer().wants(TraceCat::Net))
        eventq_->tracer().emit({depart, arrival - depart, TraceCat::Net,
                                TraceOp::Tx, l, std::int64_t(flit.flow),
                                std::int64_t(flit.seq), flit.span});
    deliver(link, src, l, std::move(flit), arrival);
    return arrival;
}

Tick
Network::controlTransmit(TspId src, LinkId l, Flit flit)
{
    TSM_ASSERT(l < topo_->links().size(), "bad link id");
    TSM_ASSERT(topo_->linkEnabled(l), "transmit on an out-of-service link");
    const Link &link = topo_->links()[l];

    Tick prop = linkPropagationPs(link.cls);
    if (const LinkTiming *lt = findOverride(linkTimings_, l))
        prop = lt->propagationPs;
    const Tick arrival = eventq_->now() + jittered(link, prop);
    if (eventq_->tracer().wants(TraceCat::Net))
        eventq_->tracer().emit({eventq_->now(), arrival - eventq_->now(),
                                TraceCat::Net, TraceOp::Ctl, l,
                                std::int64_t(flit.flow),
                                std::int64_t(flit.meta), flit.span});
    deliver(link, src, l, std::move(flit), arrival);
    return arrival;
}

Tick
Network::jittered(const Link &link, Tick prop)
{
    if (!jitterEnabled_)
        return prop;
    const double sigma = double(linkJitterPs(link.cls));
    // Truncate at +-4 sigma; latency can never go below a physical
    // floor of ~90% of nominal.
    double noise = rng_.gaussian(0.0, sigma);
    noise = std::clamp(noise, -4.0 * sigma, 4.0 * sigma);
    const double floor_ps = 0.9 * double(prop);
    return Tick(std::max(floor_ps, double(prop) + noise));
}

void
Network::deliver(const Link &link, TspId src, LinkId l, Flit flit,
                 Tick arrival)
{
    const TspId dst = link.peer(src);
    const SpanId span = flit.span;
    std::uint32_t idx;
    if (freeInFlight_ == kNoSlot) {
        idx = std::uint32_t(inFlight_.size());
        inFlight_.emplace_back();
    } else {
        idx = freeInFlight_;
        freeInFlight_ = inFlight_[idx].nextFree;
    }
    inFlight_[idx] = {{std::move(flit), arrival, l}, dst, link.portAt(dst)};
    eventq_->post(
        arrival,
        [](void *net, std::uint64_t i) {
            static_cast<Network *>(net)->arrive(std::uint32_t(i));
        },
        this, idx, span, EventKind::NetDeliver);
}

void
Network::arrive(std::uint32_t idx)
{
    // Take the flit and free its slot first: a sink may transmit,
    // reusing the slot or growing the slab.
    InFlight f = std::move(inFlight_[idx]);
    inFlight_[idx].nextFree = freeInFlight_;
    freeInFlight_ = idx;
    const ArrivedFlit &af = f.af;
    if (eventq_->tracer().wants(TraceCat::Net))
        eventq_->tracer().emit({af.arrival, 0, TraceCat::Net, TraceOp::Rx,
                                af.via, std::int64_t(af.flit.flow),
                                std::int64_t(af.flit.seq), af.flit.span});
    if (sinks_[f.dst]) {
        sinks_[f.dst]->flitArrived(f.port, af);
        return;
    }
    if (rx_.empty())
        rx_.resize(sinks_.size());
    if (rx_[f.dst].empty())
        rx_[f.dst].resize(kPortsPerTsp);
    rx_[f.dst][f.port].push(std::move(f.af));
}

const RxRing *
Network::rxRing(TspId tsp, unsigned port) const
{
    TSM_ASSERT(tsp < sinks_.size() && port < kPortsPerTsp,
               "receive FIFO tsp{} port {} is out of range", tsp, port);
    if (tsp >= rx_.size() || rx_[tsp].empty())
        return nullptr;
    return &rx_[tsp][port];
}

std::optional<ArrivedFlit>
Network::pollRx(TspId tsp, unsigned port)
{
    const RxRing *ring = rxRing(tsp, port);
    if (!ring || ring->empty())
        return std::nullopt;
    return rx_[tsp][port].pop();
}

std::size_t
Network::rxDepth(TspId tsp, unsigned port) const
{
    const RxRing *ring = rxRing(tsp, port);
    return ring ? ring->size() : 0;
}

std::uint64_t
Network::totalFlits() const
{
    std::uint64_t total = 0;
    for (const auto &st : stats_)
        total += st.flits;
    return total;
}

std::uint64_t
Network::totalMbes() const
{
    std::uint64_t total = 0;
    for (const auto &st : stats_)
        total += st.mbeDetected;
    return total;
}

} // namespace tsm
