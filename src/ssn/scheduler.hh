/**
 * @file
 * The SSN compile-time network scheduler — the paper's core
 * contribution (§4).
 *
 * Given the topology and the set of tensor transfers induced by the
 * partitioned model, the scheduler produces, for every vector of every
 * tensor, the exact hop-by-hop path and the exact departure cycle on
 * every link — "scheduled, not routed". All link contention is
 * resolved here; the emitted per-chip programs contain only Send/Recv
 * instructions with absolute issue cycles, and the network layer
 * panics if two vectors ever contend for a serialization window
 * (which, by construction, they cannot).
 */

#ifndef TSM_SSN_SCHEDULER_HH
#define TSM_SSN_SCHEDULER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "arch/isa.hh"
#include "ssn/reservation.hh"
#include "ssn/spread.hh"
#include "ssn/transfer.hh"

namespace tsm {

/** Scheduler policy knobs. */
struct SsnConfig
{
    /** Extra hops allowed beyond minimal for non-minimal spreading. */
    unsigned maxExtraHops = 1;

    /** Cap on path diversity considered per transfer. */
    unsigned maxPaths = 8;

    /**
     * When false, all traffic rides the first minimal path — the
     * "minimal only" ablation of Fig 10.
     */
    bool loadBalance = true;
};

/** One scheduled hop of one vector. */
struct ScheduledHop
{
    LinkId link = kLinkInvalid;
    TspId from = kTspInvalid;

    /** Absolute departure cycle on the common time base. */
    Cycle depart = 0;

    /** Cycle at which the vector has landed at the hop's peer. */
    Cycle arrive = 0;
};

/** The full itinerary of one vector. */
struct ScheduledVector
{
    FlowId flow = kFlowInvalid;
    std::uint32_t seq = 0;
    std::vector<ScheduledHop> hops;

    Cycle departure() const { return hops.front().depart; }
    Cycle arrival() const { return hops.back().arrive; }
};

/** Per-flow summary. */
struct FlowSummary
{
    FlowId flow = kFlowInvalid;
    Cycle firstDeparture = 0;
    Cycle lastArrival = 0;
    std::uint32_t vectors = 0;
    unsigned pathsUsed = 0;

    /** The transfer's earliest injection cycle. */
    Cycle earliest = 0;
};

/** The complete communication schedule. */
struct NetworkSchedule
{
    std::vector<ScheduledVector> vectors;
    std::unordered_map<FlowId, FlowSummary> flows;

    /** Cycle by which every vector has arrived. */
    Cycle makespan = 0;

    /** Completion time of one flow. */
    Cycle flowCompletion(FlowId f) const;
};

/** Result of validating a schedule against the SSN invariants. */
struct ValidationReport
{
    bool ok = true;
    std::uint64_t windowsChecked = 0;
    std::string firstViolation;
};

class SsnScheduler
{
  public:
    SsnScheduler(const Topology &topo, SsnConfig config = {});

    /**
     * Schedule all transfers. Deterministic: identical inputs yield an
     * identical schedule. Transfers are processed in the given order
     * (the compiler orders them by data dependence). Each transfer
     * needs its own flow id.
     */
    NetworkSchedule schedule(const std::vector<TensorTransfer> &transfers);

    const Topology &topo() const { return *topo_; }
    const SsnConfig &config() const { return config_; }

  private:
    const Topology *topo_;
    SsnConfig config_;
};

/**
 * Verify the SSN invariants of a schedule independent of how it was
 * produced: (1) no two vectors overlap a serialization window on any
 * link direction; (2) each vector's hops are causally ordered with at
 * least the forward-pipeline gap at intermediate chips; (3) hop
 * endpoints chain src→dst. This check is the deadlock-freedom
 * argument made executable: every resource use is a disjoint,
 * pre-assigned time window, so no hold-and-wait cycle can exist.
 */
ValidationReport validateSchedule(const NetworkSchedule &sched,
                                  const Topology &topo);

/**
 * Lower a schedule to per-chip programs: Sends at sources and
 * intermediate hops, Recvs at intermediate hops and destinations, all
 * with absolute issue cycles. Intermediate hops buffer through stream
 * registers chosen conflict-free, spilling to SRAM under congestion
 * (virtual cut-through via SRAM).
 *
 * Destination chips deposit vector `seq` of flow f at
 * `dst_base[f] + seq` when a base address is provided; source chips
 * read vector `seq` from `src_base[f] + seq` when one is provided
 * (otherwise they transmit stream register 0).
 */
struct ProgramSet
{
    std::vector<Program> byChip;
};

ProgramSet buildPrograms(
    const NetworkSchedule &sched, const Topology &topo,
    const std::unordered_map<FlowId, LocalAddr> &dst_base = {},
    const std::unordered_map<FlowId, LocalAddr> &src_base = {});

/**
 * Like buildPrograms, but reports over-capacity schedules instead of
 * panicking: traffic so contended that a chip runs out of stream
 * registers (or a receive slides past the forward-pipeline margin)
 * returns false with a "tspN: ..." diagnosis in `*error`. This is
 * how the scenario layer rejects oversubscribing workloads up front —
 * the machine's buffering is a real, finite resource.
 */
bool tryBuildPrograms(
    const NetworkSchedule &sched, const Topology &topo,
    const std::unordered_map<FlowId, LocalAddr> &dst_base,
    const std::unordered_map<FlowId, LocalAddr> &src_base,
    ProgramSet &out, std::string *error);

} // namespace tsm

#endif // TSM_SSN_SCHEDULER_HH
