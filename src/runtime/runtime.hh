/**
 * @file
 * The fault-tolerant inference runtime (paper §4.5).
 *
 * Strategy reproduced from the paper: every link runs FEC, so single-
 * bit errors vanish in situ; uncorrectable (multi-bit) errors are
 * *detected* and flagged, and the runtime *replays* the inference "on
 * a set of known good hardware". If the fault is transient it
 * disappears on replay; if it persists, the runtime triangulates the
 * marginal node from the per-link error counters, swaps in the rack's
 * N+1 hot-spare node (the Dragonfly stays fully connected — edge and
 * node symmetry), and replays again.
 */

#ifndef TSM_RUNTIME_RUNTIME_HH
#define TSM_RUNTIME_RUNTIME_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.hh"
#include "ssn/transfer.hh"

namespace tsm {

/** Fault injection for one runtime scenario. */
struct FaultScenario
{
    /** MBE probability per vector on every link of the faulty node. */
    double mbeRate = 0.0;

    /** Node whose links misbehave (kTspInvalid: no fault). */
    unsigned faultyNode = ~0u;

    /** Transient faults clear after the first replay; persistent
     *  faults keep firing until the node is replaced. */
    bool persistent = false;
};

/** Outcome of one logical inference. */
struct RunReport
{
    bool success = false;

    /** Total attempts (1 = clean first try). */
    unsigned attempts = 0;

    /** MBEs observed across all attempts. */
    std::uint64_t mbesObserved = 0;

    /** True if the hot spare was swapped in. */
    bool spareSwapped = false;

    /** The node taken out of service (if any). */
    unsigned failedNode = ~0u;

    /** Completion tick of the successful attempt. */
    Tick completion = kTickInvalid;

    /** Why the work did not compile (empty when it did). */
    std::string error;
};

/**
 * Builds the communication work of one inference given the healthy
 * TSPs available. Returning transfers keeps the runtime independent
 * of any particular workload.
 */
using WorkBuilder = std::function<std::vector<TensorTransfer>(
    const Topology &topo, const std::vector<TspId> &active)>;

/**
 * The runtime driver. Owns the notion of which physical nodes are
 * healthy; each inference builds a fresh system over the healthy
 * topology (the paper's runtime likewise re-marshals resources per
 * invocation).
 */
class Runtime
{
  public:
    /**
     * @param nodes Total physical nodes, one of which is held back as
     *        the hot spare (paper Fig 6: N+1 redundancy per rack).
     * @param seed Reproducibility seed.
     */
    explicit Runtime(unsigned nodes, std::uint64_t seed = 1);

    /** Physical nodes currently in service (excludes spare & failed). */
    std::vector<unsigned> activeNodes() const;

    /** TSPs of the active nodes. */
    std::vector<TspId> activeTsps() const;

    /** Logical TSP count available to workloads. */
    unsigned logicalTsps() const;

    /**
     * Execute one inference with up to `max_attempts` tries,
     * applying the fault scenario. Work that does not compile (a
     * transfer to self, an endpoint outside the topology or out of
     * service) fails with the diagnosis in RunReport::error.
     */
    RunReport runInference(const WorkBuilder &work,
                           const FaultScenario &fault = {},
                           unsigned max_attempts = 3);

    /** True if the spare has been consumed. */
    bool spareUsed() const { return spareUsed_; }

  private:
    /**
     * One attempt; returns the MBE count (0 = clean), or nullopt with
     * the compile diagnosis in `*error`.
     */
    std::optional<std::uint64_t> attempt(const WorkBuilder &work,
                                         const FaultScenario &fault,
                                         bool fault_active, Tick &completion,
                                         std::string *error);

    /** Mark `node` failed and bring the spare into service. */
    void swapSpare(unsigned node);

    unsigned nodes_;
    unsigned spareNode_;
    std::vector<bool> nodeHealthy_;
    bool spareUsed_ = false;
    std::uint64_t seed_;
    unsigned runCounter_ = 0;

    /** Node triangulated from the last attempt's FEC counters. */
    unsigned lastSuspectNode_ = ~0u;
};

} // namespace tsm

#endif // TSM_RUNTIME_RUNTIME_HH
