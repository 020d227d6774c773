/**
 * @file
 * The data-driven scenario DSL (`tsm-scenario-v1`).
 *
 * A scenario is a JSON document describing one complete traffic
 * experiment: the topology, the SSN policy knobs, the network seed,
 * and the traffic itself as any mix of three sources — explicit
 * `flows` (one tensor transfer each, with start cycles, tensor shapes
 * and foreground/background roles), `collectives` (lowered through
 * src/collective's transfer builders), and synthetic `patterns`
 * (lowered through workload/traffic_gen). Parsing is strict in the
 * CliParser tradition: unknown keys, out-of-range chip ids,
 * overlapping flow ids and zero-length tensors are each rejected with
 * a distinct, actionable message — a silently mis-read scenario means
 * a run measured something other than what was asked for.
 *
 * Serialization is canonical: `dumpScenario` is a pure function of
 * the IR with a fixed key order, so parse -> serialize -> parse is
 * byte-stable — the round-trip invariant tools/tsm_fuzz asserts on
 * every generated scenario.
 */

#ifndef TSM_SCENARIO_SCENARIO_HH
#define TSM_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "net/topology.hh"
#include "ssn/scheduler.hh"
#include "ssn/transfer.hh"
#include "workload/traffic_gen.hh"

namespace tsm {

/** Schema identifier every scenario document must carry. */
inline constexpr const char *kScenarioSchema = "tsm-scenario-v1";

/** Which Topology builder a scenario instantiates. */
enum class ScenarioTopologyKind : std::uint8_t
{
    Node,        ///< one 8-TSP node (Topology::makeNode)
    Ring,        ///< bare ring of `size` TSPs (Topology::makeRing)
    SingleLevel, ///< single-level dragonfly of `size` nodes
    TwoLevel,    ///< two-level dragonfly of `size` racks
    System,      ///< natural topology for `size` TSPs (forSystemSize)
};

/** Topology selection, as written in the document. */
struct ScenarioTopology
{
    ScenarioTopologyKind kind = ScenarioTopologyKind::Node;

    /** Kind-dependent size; unused (0) for Node. */
    unsigned size = 0;

    NodeWiring wiring = NodeWiring::FullMesh;

    /** Instantiate the topology this selection describes. */
    Topology build() const;
};

/** Whether a flow's completion gates the scenario's figure of merit. */
enum class FlowRole : std::uint8_t
{
    Foreground, ///< counted in the foreground makespan
    Background, ///< contention only; completion not awaited
};

/**
 * Tensor size, either directly in 320-byte vectors or as a 2-D shape
 * plus dtype (vectors = ceil(rows * cols * dtypeBytes / 320)). The
 * form used in the document is preserved for canonical round-trips.
 */
struct TensorSpec
{
    std::uint32_t vectors = 0; ///< resolved size, always >= 1

    bool hasShape = false;
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    std::string dtype; ///< "fp16" | "fp32" | "int8" (shape form only)
};

/** One explicit tensor transfer. */
struct ScenarioFlow
{
    FlowId id = kFlowInvalid;
    TspId src = kTspInvalid;
    TspId dst = kTspInvalid;
    TensorSpec tensor;

    /** Earliest injection cycle (TensorTransfer::earliest). */
    Cycle start = 0;

    FlowRole role = FlowRole::Foreground;
};

/** Collective operations a scenario can instantiate. */
enum class ScenarioCollectiveOp : std::uint8_t
{
    Broadcast,     ///< root pushes to every other TSP
    Gather,        ///< every other TSP pushes to root
    ReduceScatter, ///< stage-1 intra-node all-to-all exchange
    AllGather,     ///< stage-3 intra-node all-gather
};

/** One collective, lowered to its transfer list. */
struct ScenarioCollective
{
    ScenarioCollectiveOp op = ScenarioCollectiveOp::Broadcast;

    /** Root chip (broadcast/gather only). */
    TspId root = 0;

    /** Per-participant tensor size in vectors. */
    std::uint32_t vectors = 0;

    /** First flow id of the lowered transfer block. */
    FlowId firstFlow = 1;

    Cycle start = 0;
    FlowRole role = FlowRole::Foreground;
};

/** One synthetic traffic pattern (workload/traffic_gen). */
struct ScenarioPattern
{
    TrafficPattern kind = TrafficPattern::UniformRandom;
    std::uint32_t vectors = 0;

    /** Pattern generator seed (destination map etc.). */
    std::uint64_t seed = 1;

    /** First flow id of the lowered transfer block. */
    FlowId firstFlow = 1;

    Cycle start = 0;
    FlowRole role = FlowRole::Foreground;
};

/** A fully parsed and validated scenario document. */
struct Scenario
{
    std::string name;

    /** Network RNG seed for the run. */
    std::uint64_t seed = 1;

    /** Injected FEC multi-bit error rate per vector, in [0, 1]. */
    double mbe = 0.0;

    ScenarioTopology topology;
    SsnConfig ssn;

    std::vector<ScenarioFlow> flows;
    std::vector<ScenarioCollective> collectives;
    std::vector<ScenarioPattern> patterns;
};

/** A scenario lowered onto the scheduler's input language. */
struct LoweredScenario
{
    std::vector<TensorTransfer> transfers;

    /** Role of transfers[i], parallel to `transfers`. */
    std::vector<FlowRole> roles;

    /** Transfers carrying FlowRole::Background. */
    std::size_t backgroundTransfers() const;
};

/**
 * Lower a scenario to its transfer list: explicit flows first (in
 * document order), then collectives, then patterns. Deterministic —
 * equal scenarios lower to equal lists.
 */
LoweredScenario lowerScenario(const Scenario &scenario,
                              const Topology &topo);

/**
 * A scenario compiled for the machine: everything software decides
 * before anything runs (paper §4). Built once by compileScenario, or
 * by compileTransfers for a hand-built transfer list; executed by
 * runtime/machine.hh's Machine and shown to every Observer.
 */
struct CompiledScenario
{
    Topology topo;

    /** The traffic as transfers, with their roles. */
    LoweredScenario lowered;

    /** Every vector's hop windows, fixed at compile time. */
    NetworkSchedule schedule;

    /** Per-chip programs lowered from the schedule (halt not emitted). */
    ProgramSet programs;
};

/**
 * Compile a scenario: build the topology, check chip-id ranges, self
 * transfers and flow-id uniqueness across all three traffic sources,
 * lower the traffic, schedule it, check the schedule (checkSchedule),
 * and build the per-chip programs (which fails when the chips cannot
 * buffer the traffic). Returns nullopt with a distinct message in
 * `*error` per defect class — never aborts on a scenario built in
 * code.
 */
std::optional<CompiledScenario> compileScenario(const Scenario &scenario,
                                                std::string *error);

/**
 * Compile a hand-built transfer list on `topo` under `ssn`; every
 * transfer is foreground. Destination chips deposit flow f at
 * `dstBase[f]` when given. Fails with a diagnosis on an endpoint
 * outside the topology, a transfer to self, a flow id used twice, a
 * schedule that fails checkSchedule, or traffic the chips cannot
 * buffer.
 */
std::optional<CompiledScenario> compileTransfers(
    Topology topo, std::vector<TensorTransfer> transfers,
    SsnConfig ssn = {}, std::string *error = nullptr,
    const std::unordered_map<FlowId, LocalAddr> &dstBase = {});

/**
 * The check every compile runs on the schedule it built:
 * validateSchedule, with the first violation as the diagnosis in
 * `*error`.
 */
bool checkSchedule(const NetworkSchedule &schedule, const Topology &topo,
                   std::string *error);

/** Compile and discard: true when compileScenario would succeed. */
bool validateScenario(const Scenario &scenario, std::string *error);

/**
 * Build a Scenario from a parsed JSON document. Strict: unknown keys,
 * wrong types, bad enum strings and failed validation all fail with a
 * message naming the offending element. On failure `out` is
 * unspecified.
 */
bool scenarioFromJson(const Json &doc, Scenario &out, std::string *error);

/** Parse JSON text into a validated Scenario. */
bool parseScenario(const std::string &text, Scenario &out,
                   std::string *error);

/** Read and parse a scenario file. */
bool loadScenarioFile(const std::string &path, Scenario &out,
                      std::string *error);

/** Serialize to the canonical JSON document (fixed key order). */
Json scenarioToJson(const Scenario &scenario);

/**
 * Canonical text form: scenarioToJson dumped with 2-space indent and
 * a trailing newline. parse(dumpScenario(s)) -> s' always satisfies
 * dumpScenario(s') == dumpScenario(s).
 */
std::string dumpScenario(const Scenario &scenario);

/** Write dumpScenario(scenario) to `path`; false on I/O failure. */
bool saveScenarioFile(const std::string &path, const Scenario &scenario,
                      std::string *error);

/// @name Enum spellings used by the document format
/// @{
const char *scenarioTopologyKindName(ScenarioTopologyKind k);
const char *flowRoleName(FlowRole r);
const char *scenarioCollectiveOpName(ScenarioCollectiveOp op);
const char *nodeWiringName(NodeWiring w);
/// @}

} // namespace tsm

#endif // TSM_SCENARIO_SCENARIO_HH
