/**
 * @file
 * The TSP chip model: a deterministic, statically scheduled processing
 * element that is simultaneously a network endpoint and a router
 * (paper Fig 4(c)).
 *
 * Execution model. The real TSP has one instruction control unit per
 * functional slice, all statically scheduled against a common chip
 * clock so the whole chip acts as "a single logical core" (paper §3).
 * We model the program as a single instruction sequence in which every
 * instruction either issues back-to-back (hand-written programs) or at
 * a compiler-assigned absolute cycle (`Instr::issueAt`, SSN-generated
 * programs). Instructions with assigned cycles may overlap in time
 * across functional units (e.g. concurrent sends on different ports);
 * the network enforces the per-port serialization invariant and panics
 * on any overlap, because an overlap is by definition a compiler bug.
 *
 * Determinism verification. A scheduled Recv whose operand has not
 * arrived panics ("underflow"); hardware back-pressure does not exist.
 *
 * Counters. The chip carries the paper's HAC (hardware aligned
 * counter, adjusted toward a parent's time base) and SAC (software
 * aligned counter, free-running since the last resynchronization),
 * both with a 252-cycle epoch.
 */

#ifndef TSM_ARCH_CHIP_HH
#define TSM_ARCH_CHIP_HH

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "arch/isa.hh"
#include "arch/mem.hh"
#include "arch/vec.hh"
#include "net/network.hh"
#include "sim/clock.hh"
#include "sim/sim_object.hh"

namespace tsm {

/** Serialization time of one vector in (ceiled) core cycles. */
inline constexpr Cycle kVectorSerializationCycles = 24;

/** Per-chip execution statistics. */
struct ChipStats
{
    std::uint64_t instrsExecuted = 0;
    std::uint64_t flitsSent = 0;
    std::uint64_t flitsReceived = 0;
    std::uint64_t corruptReceived = 0;
    std::uint64_t computeCycles = 0;
    std::uint64_t deskewStallCycles = 0;
    Tick haltTick = kTickInvalid;
};

/** A TSP processing element attached to the network. */
class TspChip : public SimObject, public FlitSink
{
  public:
    /**
     * @param id This chip's TSP id in the topology.
     * @param net The interconnect (must outlive the chip).
     * @param clock This chip's (possibly drifting) clock domain.
     */
    TspChip(TspId id, Network &net, DriftClock clock);

    TspId id() const { return id_; }
    const DriftClock &clock() const { return clock_; }
    Network &network() { return *net_; }
    LocalMemory &mem() { return mem_; }
    const ChipStats &stats() const { return stats_; }

    /** Current local cycle count. */
    Cycle localCycle() const { return clock_.tickToCycle(now()); }

    /// @name Aligned counters (paper §3.1, §3.3)
    /// @{

    /** Current HAC value in [0, 252). */
    unsigned hac() const { return hacAt(localCycle()); }

    /** HAC value at local cycle `c`, with the current adjustment. */
    unsigned hacAt(Cycle c) const;

    /** Current SAC value in [0, 252). */
    unsigned sac() const;

    /** Nudge the HAC by a (clamped elsewhere) cycle delta. */
    void adjustHac(int delta_cycles);

    /**
     * Signed accumulated drift (SAC - HAC) in cycles, in
     * [-126, 126) — "the delta between a TSP's SAC and HAC represents
     * the accumulated drift" (paper §3.3).
     */
    int sacHacDelta() const;

    /** Re-align the SAC with the HAC (done by RUNTIME_DESKEW). */
    void realignSac();

    /** First tick >= t at which this chip's HAC reads 0. */
    Tick nextEpochStart(Tick t) const;

    /// @}

    /// @name Program execution
    /// @{

    /**
     * Load a program (replaces any previous program) and reserve one
     * receive slot on each port it receives on.
     */
    void load(Program program);

    /** Begin executing the loaded program at tick `at` (>= now). */
    void start(Tick at);

    bool running() const { return running_; }
    bool halted() const { return stats_.haltTick != kTickInvalid; }

    /** Callback invoked when the program executes Halt. */
    void onHalt(std::function<void()> cb) { onHalt_ = std::move(cb); }

    /// @}

    /// @name Direct state access (program setup and verification)
    /// @{

    VecPtr stream(unsigned s) const { return streams_.at(s); }
    void setStream(unsigned s, VecPtr v) { streams_.at(s) = std::move(v); }

    /** Depth of the receive FIFO at `port`. */
    std::size_t rxDepth(unsigned port) const { return rxRing(port).size(); }

    /** Flits the receive FIFO at `port` holds without growing. */
    std::size_t
    rxCapacity(unsigned port) const
    {
        return rxRing(port).capacity();
    }

    /// @}

    /**
     * Handler for HAC-exchange control flits arriving at a given port;
     * installed by the sync module (link characterizer, HAC aligner).
     * Passing a null handler uninstalls.
     */
    using ControlHandler =
        std::function<void(unsigned port, const ArrivedFlit &)>;
    void
    setControlHandler(unsigned port, ControlHandler h)
    {
        controlHandlers_.at(port) = std::move(h);
    }

    /** FlitSink: network delivery. */
    void flitArrived(unsigned port, const ArrivedFlit &af) override;

  private:
    /** Schedule the issue loop to run at tick `t`. */
    void scheduleIssue(Tick t);

    /** Issue/execute the instruction at pc_. */
    void issue();

    /** Execute `i` now; @return tick at which the next instr may issue. */
    Tick execute(const Instr &i);

    /** Pop a data flit from a port FIFO, verifying its tag. */
    VecPtr consumeRx(const Instr &i);

    /** The link occupying `port`, or panic. */
    LinkId portLink(unsigned port) const;

    /** The receive FIFO at `port`, or panic on a bad port. */
    const RxRing &rxRing(unsigned port) const;

    TspId id_;
    Network *net_;
    DriftClock clock_;
    LocalMemory mem_;
    std::array<VecPtr, kNumStreams> streams_;
    /** MXM weight rows; allocated by the first MxmLoadWeights. */
    std::unique_ptr<std::array<VecPtr, kVectorLanesInt8>> mxmWeights_;
    unsigned mxmRows_ = 0;

    std::array<RxRing, kPortsPerTsp> rxFifo_;

    Program program_;
    std::size_t pc_ = 0;
    bool running_ = false;

    /** Additive corrections to the free-running cycle counters. */
    std::int64_t hacOffset_ = 0;
    std::int64_t sacOffset_ = 0;

    ChipStats stats_;
    std::function<void()> onHalt_;
    std::array<ControlHandler, kPortsPerTsp> controlHandlers_;
};

} // namespace tsm

#endif // TSM_ARCH_CHIP_HH
