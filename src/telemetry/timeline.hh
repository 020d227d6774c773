/**
 * @file
 * Time-resolved telemetry: the windowed timeline sampler.
 *
 * The profiler (prof/profiler.hh) answers "where did the cycles of the
 * whole run go"; the journal (trace/journal.hh) records every event.
 * Between the two sits the question the paper's figures actually ask —
 * *which part of the run* was network-bound, and on which links (Fig 2
 * bandwidth profile, Fig 8 contention timelines, Table 2 HAC
 * convergence). The `TimelineSampler` is a TraceSink that folds the
 * trace stream into fixed-width cycle windows:
 *
 *  - per link: flits carried, serialization-busy time, FEC MBEs, and
 *    the receive-queue depth high-water mark within the window;
 *  - per chip, per functional unit: issue-slot busy cycles plus stall
 *    and idle cycles, using charging rules identical to ProfilerSink
 *    so that per-window accounts sum *exactly* to the whole-run
 *    accounts (tested);
 *  - HAC alignment activity: adjustment count and drift/correction
 *    magnitudes per window;
 *  - phase markers: runtime bring-up events and the SSN schedule's
 *    flow/makespan replay markers, for labeling collective phases.
 *
 * The sampler serializes as a stable, byte-deterministic
 * `tsm-timeline-v1` JSON document (same-seed runs emit identical
 * bytes), optionally annotated with the bottleneck-phase analysis of
 * telemetry/phase.hh. `--timeline=FILE` on the instrumented harnesses
 * (trace/session.hh) writes it; tools/tsm_top renders it offline.
 *
 * Window boundaries: a window covers cycles [w*W, (w+1)*W); an event
 * exactly on a boundary cycle belongs to the *opening* window. Ticks
 * are mapped to cycles by truncation at the nominal core period.
 */

#ifndef TSM_TELEMETRY_TIMELINE_HH
#define TSM_TELEMETRY_TIMELINE_HH

#include <cstdint>
#include <map>
#include <vector>

#include "arch/isa.hh"
#include "common/json.hh"
#include "common/units.hh"
#include "net/flit.hh"
#include "net/topology.hh"
#include "trace/trace.hh"

namespace tsm {

struct PhaseAnalysis;

/** Schema tag stamped into every timeline document. */
inline constexpr const char *kTimelineSchema = "tsm-timeline-v1";

/** Default window width in core cycles. */
inline constexpr Cycle kDefaultWindowCycles = 1024;

/** One chip's account within one window. */
struct ChipWindow
{
    Cycle busy[kNumFuncUnits] = {};
    Cycle stall = 0;
    Cycle idle = 0;
    std::uint64_t instrs = 0;

    Cycle busyTotal() const
    {
        Cycle total = 0;
        for (unsigned u = 0; u < kNumFuncUnits; ++u)
            total += busy[u];
        return total;
    }
};

/** One link's account within one window. */
struct LinkWindow
{
    std::uint64_t flits = 0;
    std::uint64_t mbes = 0;

    /** Transmitter serialization time attributed to this window. */
    Tick busyPs = 0;

    /** Receive-queue depth high-water mark observed in this window. */
    unsigned queueHwm = 0;
};

/** HAC alignment activity within one window. */
struct HacWindow
{
    std::uint64_t adjustments = 0;
    std::uint64_t sumAbsDelta = 0;
    std::uint64_t maxAbsDelta = 0;
    std::uint64_t sumAbsStep = 0;
};

/** A runtime bring-up or schedule-replay marker on the timeline. */
struct TimelineMarker
{
    Tick tick = 0;
    Tick dur = 0;
    TraceCat cat = TraceCat::Runtime; ///< Runtime or Ssn
    TraceOp op = TraceOp::Synchronize; ///< Synchronize, Flow, Makespan, ...
    std::uint32_t actor = 0;
};

/** Folds the trace stream into fixed-width cycle windows. */
class TimelineSampler : public TraceSink
{
  public:
    explicit TimelineSampler(Cycle windowCycles = kDefaultWindowCycles);

    /** Everything except the per-dispatch Sim firehose. */
    unsigned categoryMask() const override { return kTraceDefaultCats; }

    void event(const TraceEvent &ev) override;

    /** Close out still-pending instruction occupancies. */
    void finish() override;

    /// @name Sampled windows (sparse, keyed by window index ascending)
    /// @{
    Cycle windowCycles() const { return windowCycles_; }

    /** Number of windows covering the run: last touched index + 1. */
    std::uint64_t numWindows() const;

    /** Latest cycle any windowed account touches. */
    Cycle spanCycles() const { return spanCycles_; }

    std::uint64_t events() const { return events_; }

    const std::map<TspId, std::map<std::uint64_t, ChipWindow>> &
    chips() const
    {
        return chips_;
    }

    const std::map<LinkId, std::map<std::uint64_t, LinkWindow>> &
    links() const
    {
        return links_;
    }

    const std::map<std::uint64_t, HacWindow> &hac() const { return hac_; }

    const std::vector<TimelineMarker> &markers() const { return markers_; }
    /// @}

    /** Cycle a global tick lands on (truncating, nominal period). */
    Cycle tickToCycle(Tick tick) const;

    /** Window a cycle belongs to. */
    std::uint64_t windowOf(Cycle cycle) const
    {
        return cycle / windowCycles_;
    }

    /**
     * Build the `tsm-timeline-v1` document; byte-deterministic for a
     * given event stream. When `analysis` is non-null its window
     * labels and phase segments are embedded ("labels" / "phases").
     */
    Json report(const PhaseAnalysis *analysis = nullptr) const;

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

    /**
     * Charge the pending instruction across [pend.cycle, until) with
     * ProfilerSink's exact rules — min(gap, dur) to the op's class,
     * the remainder to idle — but split per window boundary.
     */
    void charge(TspId chip, Pending &pend, Cycle until);

    /** Add `kind`-class cycles over [from, to), split per window. */
    void chargeRange(TspId chip, Cycle from, Cycle to, OpTimeClass cls,
                     FuncUnit unit);

    /** Cap on recorded phase markers. */
    static constexpr std::size_t kMarkerCap = 256;

    Cycle windowCycles_;

    std::map<TspId, std::map<std::uint64_t, ChipWindow>> chips_;
    std::map<LinkId, std::map<std::uint64_t, LinkWindow>> links_;
    std::map<std::uint64_t, HacWindow> hac_;
    std::vector<TimelineMarker> markers_;

    std::map<TspId, Pending> pending_;

    /** Per-link current receive-queue depth (arrivals minus Recvs). */
    std::map<LinkId, unsigned> queueDepth_;

    /** In-flight flits awaiting their consuming Recv: (flow,seq). */
    std::map<std::pair<FlowId, std::uint32_t>,
             std::vector<std::pair<Tick, LinkId>>>
        inFlight_;

    std::uint64_t events_ = 0;
    Cycle spanCycles_ = 0;
};

} // namespace tsm

#endif // TSM_TELEMETRY_TIMELINE_HH
