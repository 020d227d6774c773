/**
 * @file
 * The live interconnect: binds a Topology to the event queue and moves
 * vector flits between TSPs.
 *
 * Determinism contract (paper §4.4): in SSN operation the network never
 * arbitrates and never back-pressures. A transmit that would overlap a
 * port's previous serialization window is a *compiler* bug and panics;
 * it is not queued. FEC (paper §4.5) corrects single-bit errors in situ
 * with no timing change and flags uncorrectable errors on the flit for
 * the runtime to handle by replay.
 */

#ifndef TSM_NET_NETWORK_HH
#define TSM_NET_NETWORK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "net/flit.hh"
#include "net/topology.hh"
#include "sim/event_queue.hh"

namespace tsm {

/** A flit that has landed in a receive buffer. */
struct ArrivedFlit
{
    Flit flit;
    Tick arrival = 0;
    LinkId via = kLinkInvalid;
};

/**
 * One receive port's FIFO of arrived flits: a ring over storage held
 * out of line, so a port that never receives costs no allocation. The
 * SSN compiler consumes each vector before the next lands on its
 * port, so a chip reserves one slot per receiving port at load time;
 * a push into a full ring (hand-written programs, polling users,
 * slid receives) doubles it.
 */
class RxRing
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

    /** Grow the storage to hold at least `n` flits. */
    void reserve(std::size_t n);

    void
    push(ArrivedFlit af)
    {
        if (size_ == cap_)
            reserve(cap_ == 0 ? 1 : 2 * std::size_t(cap_));
        std::uint32_t tail = head_ + size_;
        if (tail >= cap_)
            tail -= cap_;
        slots_[tail] = std::move(af);
        ++size_;
    }

    /** Remove and return the oldest flit; the ring must not be empty. */
    ArrivedFlit
    pop()
    {
        ArrivedFlit af = std::move(slots_[head_]);
        if (++head_ == cap_)
            head_ = 0;
        --size_;
        return af;
    }

  private:
    std::unique_ptr<ArrivedFlit[]> slots_;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;
};

/**
 * Receiver interface: the network calls this when a flit lands at a
 * TSP's port. TspChip implements it; tests may implement it directly.
 */
class FlitSink
{
  public:
    virtual ~FlitSink() = default;

    /** Called at the flit's arrival tick. */
    virtual void flitArrived(unsigned port, const ArrivedFlit &af) = 0;
};

/** Aggregate per-link counters. */
struct LinkStats
{
    std::uint64_t flits = 0;
    std::uint64_t sbeCorrected = 0;
    std::uint64_t mbeDetected = 0;

    /** Last tick at which the transmitter was busy (for utilization). */
    Tick busyPs = 0;
};

/**
 * The interconnection network. Owns per-link transmit state and the
 * polling FIFOs of TSPs with no sink; delivery timing is
 * serialization + propagation(+jitter).
 */
class Network
{
  public:
    /**
     * @param topo The (externally owned) topology; must outlive this.
     * @param eq Event queue driving delivery.
     * @param rng Seed generator for jitter and FEC error draws.
     * @param jitter_enabled When false, links are perfectly
     *        deterministic (jitter = 0) — the operating regime SSN
     *        schedules for after characterization has bounded margins.
     */
    Network(const Topology &topo, EventQueue &eq, const Rng &rng,
            bool jitter_enabled = false);

    const Topology &topo() const { return *topo_; }
    EventQueue &eventq() const { return *eventq_; }

    /** Register the receiver for a TSP's ports (one sink per TSP). */
    void attachSink(TspId tsp, FlitSink *sink);

    /** Set the FEC error model applied to every link. */
    void setErrorModel(const ErrorModel &em) { errorModel_ = em; }

    /** Override the error model of one link (marginal cable, etc.). */
    void
    setLinkErrorModel(LinkId l, const ErrorModel &em)
    {
        linkErrorModels_[l] = em;
    }

    /**
     * Override one link's physical timing: serialization time per
     * vector and propagation delay, both in picoseconds. This is how
     * the what-if checker re-simulates a counterfactual ("link L at
     * 2x bandwidth") with a genuinely faster wire instead of a fudged
     * schedule — the SSN overlap panic still fires if the perturbed
     * schedule and the perturbed physics disagree.
     */
    void
    setLinkTiming(LinkId l, Tick serialization_ps, Tick propagation_ps)
    {
        linkTimings_[l] = {serialization_ps, propagation_ps};
    }

    /** Enable/disable latency jitter (applies to future transmits). */
    void setJitterEnabled(bool on) { jitterEnabled_ = on; }

    /**
     * Transmit one flit from `src` over link `l` starting at tick
     * `depart` (>= now). Panics if the transmitter is still busy — SSN
     * schedules must never overlap serialization windows — or if the
     * link is out of service.
     *
     * @return the tick at which the flit will arrive at the peer.
     */
    Tick transmit(TspId src, LinkId l, Flit flit, Tick depart);

    /**
     * Transmit a control flit (HAC exchange, sync tokens). Control
     * traffic rides the line code's reserved symbols (the HAC reserves
     * 4 of its 256 codes for control), so it does not occupy a vector
     * serialization window and may overlap data transmission.
     */
    Tick controlTransmit(TspId src, LinkId l, Flit flit);

    /**
     * Earliest tick >= `earliest` at which `src` may begin a transmit
     * on link `l` (the port's serialization window must be free).
     */
    Tick earliestDeparture(TspId src, LinkId l, Tick earliest) const;

    /**
     * Pop the oldest undelivered flit at (tsp, port), if any. Only
     * flits for TSPs with no attached sink land here; a sink takes
     * delivery directly. A TSP's row of FIFOs is allocated when its
     * first such flit lands.
     */
    std::optional<ArrivedFlit> pollRx(TspId tsp, unsigned port);

    /** Number of flits waiting at (tsp, port). */
    std::size_t rxDepth(TspId tsp, unsigned port) const;

    const LinkStats &linkStats(LinkId l) const { return stats_[l]; }

    /** Sum of flits carried over all links. */
    std::uint64_t totalFlits() const;

    /** Total uncorrectable errors detected across all links. */
    std::uint64_t totalMbes() const;

  private:
    /**
     * The transmit that most recently occupied one link direction,
     * named when a later transmit conflicts with its window.
     */
    struct Occupant
    {
        FlowId flow = kFlowInvalid;
        std::uint32_t seq = 0;
        SpanId span = kSpanNone;

        /** Serialization window [depart, depart + serialization). */
        Tick depart = 0;
    };

    /** Overridden physical timing of one link (setLinkTiming). */
    struct LinkTiming
    {
        Tick serializationPs = 0;
        Tick propagationPs = 0;
    };

    struct Direction
    {
        /** Transmitter end is free again at this tick. */
        Tick txFreeAt = 0;

        /** The flit whose serialization window set txFreeAt. */
        Occupant occupant;
    };

    /** A flit on the wire, waiting for its delivery event. */
    struct InFlight
    {
        ArrivedFlit af;
        TspId dst = 0;
        unsigned port = 0;

        /** While the slot is free: the next free slot. */
        std::uint32_t nextFree = kNoSlot;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** Index of the direction record for transmits from `src` on `l`. */
    std::size_t dirIndex(LinkId l, TspId src) const;

    /** Link `l`'s propagation delay `prop` plus a jitter draw, if on. */
    Tick jittered(const Link &link, Tick prop);

    /** Schedule delivery of a flit into the peer's sink or rx FIFO. */
    void deliver(const Link &link, TspId src, LinkId l, Flit flit,
                 Tick arrival);

    /** The delivery event of in-flight slot `idx`. */
    void arrive(std::uint32_t idx);

    /** (tsp, port)'s polling FIFO, or nullptr before its row exists. */
    const RxRing *rxRing(TspId tsp, unsigned port) const;

    const Topology *topo_;
    EventQueue *eventq_;
    Rng rng_;
    bool jitterEnabled_;
    ErrorModel errorModel_;
    std::unordered_map<LinkId, ErrorModel> linkErrorModels_;
    std::unordered_map<LinkId, LinkTiming> linkTimings_;

    std::vector<Direction> directions_; // 2 per link
    std::vector<LinkStats> stats_;      // 1 per link
    std::vector<std::vector<RxRing>> rx_; // [tsp][port], built lazily
    std::vector<FlitSink *> sinks_;       // [tsp]

    /**
     * Flits in flight, in slots reused through a free list threaded
     * through the free slots, so freeing one never allocates. A
     * delivery event captures only (this, slot), which std::function
     * stores without allocating.
     */
    std::vector<InFlight> inFlight_;
    std::uint32_t freeInFlight_ = kNoSlot;
};

} // namespace tsm

#endif // TSM_NET_NETWORK_HH
