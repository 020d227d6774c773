/**
 * @file
 * The attribution profiler: a TraceSink that folds the PR-1 trace
 * stream into accounts that *explain* where cycles went.
 *
 *  - Per chip, per functional unit (MXM/VXM/SXM/MEM): busy, stall and
 *    idle cycles that always sum to the chip's observed span. Each
 *    instruction-issue event charges its occupancy to its unit's
 *    class (arch/isa.hh opUnit/opTimeClass); any gap to the next
 *    issue is idle by definition — the single-sequence model makes
 *    this exact.
 *  - Per link: flits carried, serialization-busy time, and a log2
 *    histogram of receive queueing delay (flit arrival to the
 *    consuming Recv), the slack the SSN schedule left at the
 *    receiver. FEC multi-bit errors are attributed back to the link
 *    that corrupted the flit: `dropped` counts vectors whose payload
 *    was discarded at their consuming Recv because of an MBE on that
 *    link.
 *  - Per transfer (causal span, trace/span.hh): a cross-chip
 *    waterfall — serialize, flight, forward-queue and deskew-wait
 *    picoseconds that sum *exactly* to the observed end-to-end
 *    latency between the span's open (source Send) and close
 *    (destination Recv), however many forwarded hops lie between.
 *  - HAC alignment telemetry: every observed drift delta and applied
 *    correction, with a bounded timeline for convergence plots.
 *  - The simulated completion time of the scheduled communication,
 *    for comparison against the static prediction
 *    (prof/ssn_analysis.hh).
 *
 * The sink is order-tolerant across chips/links (events interleave on
 * the global timeline) but relies on per-actor event order, which the
 * single-threaded event queue guarantees.
 */

#ifndef TSM_PROF_PROFILER_HH
#define TSM_PROF_PROFILER_HH

#include <map>
#include <unordered_map>
#include <vector>

#include "arch/isa.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "net/flit.hh"
#include "net/topology.hh"
#include "trace/trace.hh"

namespace tsm {

/** Per-chip attributed cycle account. */
struct ChipAccount
{
    /** Local cycle of the first/last observed issue. */
    Cycle firstCycle = 0;
    Cycle lastCycle = 0;

    /** Busy cycles charged to each functional unit. */
    Cycle busy[kNumFuncUnits] = {};

    /** Chip-wide stall cycles (deskew, poll waits). */
    Cycle stall = 0;

    /** Empty issue slots (NOPs, waits for scheduled cycles). */
    Cycle idle = 0;

    std::uint64_t instrs = 0;
    bool halted = false;

    /** Observed span; busy + stall + idle always equals this. */
    Cycle totalCycles() const { return lastCycle - firstCycle; }

    Cycle busyTotal() const;
};

/** Per-link traffic account (both directions folded together). */
struct LinkAccount
{
    std::uint64_t flits = 0;
    std::uint64_t mbes = 0;

    /**
     * Vectors whose payload was dropped at the consuming Recv because
     * an FEC multi-bit error on *this* link corrupted them (paper
     * §4.5: MBEs are detected and flagged, never retried, so every
     * MBE eventually surfaces as one dropped payload downstream).
     */
    std::uint64_t dropped = 0;

    /** Transmitter serialization time. */
    Tick busyPs = 0;
};

/**
 * One vector's cross-chip journey, reconstructed from its causal span
 * (trace/span.hh): opened by the source chip's Send, one link leg per
 * tx/rx pair (forwarded routes have several), closed by the consuming
 * Recv at the final destination. The four waterfall stages tile the
 * observed latency exactly:
 *
 *   serializePs + flightPs + forwardPs + waitPs == closeTick - openTick
 *
 * because tx durations, inter-leg gaps and the final arrival-to-Recv
 * gap telescope over the journey.
 */
struct TransferRecord
{
    FlowId flow = 0;
    std::uint32_t seq = 0;
    TspId src = 0; ///< chip whose Send opened the span
    TspId dst = 0; ///< chip whose Recv closed it (valid once closed)

    Tick openTick = 0;
    Tick closeTick = 0;

    /** Time spent clocking the vector onto wires (all legs). */
    Tick serializePs = 0;
    /** Time in flight on the physical links (all legs). */
    Tick flightPs = 0;
    /** Layover on forwarding chips between arrival and onward Send. */
    Tick forwardPs = 0;
    /** Deskew margin at the destination: arrival to consuming Recv. */
    Tick waitPs = 0;

    unsigned legs = 0;        ///< link legs observed
    std::uint64_t mbes = 0;   ///< legs corrupted by an FEC MBE
    bool closed = false;      ///< span_close seen

    /** Observed end-to-end latency (0 until closed). */
    Tick totalPs() const { return closed ? closeTick - openTick : 0; }

    /** The telescoping invariant; holds for every closed transfer. */
    Tick stagesPs() const
    {
        return serializePs + flightPs + forwardPs + waitPs;
    }

    /// @name Sink-internal pairing state
    /// @{
    Tick lastArrival = 0;
    bool haveArrival = false;
    /// @}
};

/** HAC alignment telemetry. */
struct HacAccount
{
    /** Parent update transmissions observed. */
    std::uint64_t updatesSent = 0;

    /** Child adjustment events observed. */
    std::uint64_t adjustments = 0;

    /** Sum / max of |observed drift delta| in cycles. */
    std::uint64_t sumAbsDelta = 0;
    std::uint64_t maxAbsDelta = 0;

    /** Sum of |applied correction| in cycles. */
    std::uint64_t sumAbsStep = 0;

    /** First observations of (tick, delta, step), bounded. */
    static constexpr std::size_t kTimelineCap = 256;
    struct Sample
    {
        Tick tick;
        int delta;
        int step;
    };
    std::vector<Sample> timeline;
};

/** Folds the trace stream into the accounts above. */
class ProfilerSink : public TraceSink
{
  public:
    /** Everything except the per-dispatch Sim firehose. */
    unsigned categoryMask() const override { return kTraceDefaultCats; }

    void event(const TraceEvent &ev) override;

    /** Close out still-pending instruction occupancies. */
    void finish() override;

    /// @name Accounts (keyed deterministically, ascending id)
    /// @{
    const std::map<TspId, ChipAccount> &chips() const { return chips_; }
    const std::map<LinkId, LinkAccount> &links() const { return links_; }
    const HacAccount &hac() const { return hac_; }

    /** Per-transfer waterfalls, keyed by parent span id. */
    const std::map<SpanId, TransferRecord> &transfers() const
    {
        return transfers_;
    }

    /** Queue-delay histogram of one link, or nullptr. */
    const Log2Histogram *queueDelay(LinkId link) const;

    /** Queue-delay histogram over all links. */
    const Log2Histogram &queueDelayAll() const { return queueAll_; }
    /// @}

    /// @name Stream-level summary
    /// @{
    std::uint64_t events() const { return events_; }

    /** Latest point any event touches (tick + duration). */
    Tick spanPs() const { return spanPs_; }

    /** Scheduled-transfer receive events seen / last one's tick. */
    std::uint64_t recvEvents() const { return recvEvents_; }
    Tick lastRecvTick() const { return lastRecvTick_; }

    /** Scheduled-transfer send events seen. */
    std::uint64_t sendEvents() const { return sendEvents_; }

    /** Total data flits carried across all links. */
    std::uint64_t totalFlits() const;
    /// @}

  private:
    struct Pending
    {
        bool valid = false;
        Cycle cycle = 0;
        Cycle durCycles = 0;
        FuncUnit unit = FuncUnit::ICU;
        OpTimeClass cls = OpTimeClass::Idle;
    };

    void chipEvent(const TraceEvent &ev);
    void netEvent(const TraceEvent &ev);
    void ssnEvent(const TraceEvent &ev);
    void syncEvent(const TraceEvent &ev);
    void charge(ChipAccount &acct, Pending &pend, Cycle until);

    std::map<TspId, ChipAccount> chips_;
    std::map<LinkId, LinkAccount> links_;
    std::unordered_map<TspId, Pending> pending_;
    HacAccount hac_;
    std::map<LinkId, Log2Histogram> queueDelay_;
    Log2Histogram queueAll_;

    /** In-flight flits awaiting their consuming Recv: (flow,seq). */
    std::map<std::pair<FlowId, std::uint32_t>,
             std::vector<std::pair<Tick, LinkId>>>
        inFlight_;

    /** Transfer waterfalls keyed by parent span id. */
    std::map<SpanId, TransferRecord> transfers_;

    /** MBE-corrupted (flow,seq) awaiting their dropping Recv: the
     *  links to charge, oldest first. */
    std::map<std::pair<FlowId, std::uint32_t>, std::vector<LinkId>>
        pendingMbe_;

    std::uint64_t events_ = 0;
    Tick spanPs_ = 0;
    std::uint64_t recvEvents_ = 0;
    std::uint64_t sendEvents_ = 0;
    Tick lastRecvTick_ = 0;
};

} // namespace tsm

#endif // TSM_PROF_PROFILER_HH
