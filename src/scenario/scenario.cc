#include "scenario/scenario.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "collective/allreduce.hh"
#include "collective/primitives.hh"
#include "common/units.hh"
#include "ssn/scheduler.hh"

namespace tsm {

namespace {

/** Bytes per element of the dtypes the shape form accepts. */
int
dtypeBytes(const std::string &dtype)
{
    if (dtype == "fp16")
        return 2;
    if (dtype == "fp32")
        return 4;
    if (dtype == "int8")
        return 1;
    return 0;
}

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = "scenario: " + msg;
    return false;
}

/** The largest tensor one TSP's SRAM holds: 720,896 vectors. */
constexpr std::uint64_t kMaxTensorVectors = kLocalMemBytes / kVectorBytes;

/**
 * Reject `where`'s `key`, which asks for `size`: more than one TSP's
 * SRAM holds, so the tensor cannot exist on its source chip.
 */
bool
failTooBig(std::string *error, const std::string &where,
           const std::string &key, const std::string &size)
{
    return fail(error, where + " key \"" + key + "\" asks for " + size +
                           ", more than one TSP's SRAM holds (" +
                           std::to_string(kMaxTensorVectors) +
                           " vectors)");
}

/**
 * Reject members of `obj` outside `allowed` — the first unknown key
 * fails with the element's name so the user can find the typo.
 */
bool
checkKeys(const Json &obj, const std::vector<std::string> &allowed,
          const std::string &where, std::string *error)
{
    for (const auto &[key, value] : obj.members()) {
        (void)value;
        if (std::find(allowed.begin(), allowed.end(), key) ==
            allowed.end())
            return fail(error,
                        "unknown key \"" + key + "\" in " + where);
    }
    return true;
}

bool
requireObject(const Json &v, const std::string &where, std::string *error)
{
    if (v.kind() != Json::Kind::Object)
        return fail(error, where + " must be a JSON object");
    return true;
}

/** Read a required non-negative integer member. */
bool
readUint(const Json &obj, const std::string &key, const std::string &where,
         std::uint64_t &out, std::string *error)
{
    if (!obj.has(key))
        return fail(error, where + " is missing required key \"" + key +
                               "\"");
    const Json &v = obj[key];
    if (v.kind() != Json::Kind::Int || v.integer() < 0)
        return fail(error, where + " key \"" + key +
                               "\" must be a non-negative integer");
    out = std::uint64_t(v.integer());
    return true;
}

/** Read an optional non-negative integer member (default untouched). */
bool
readOptUint(const Json &obj, const std::string &key,
            const std::string &where, std::uint64_t &out,
            std::string *error)
{
    if (!obj.has(key))
        return true;
    const Json &v = obj[key];
    if (v.kind() != Json::Kind::Int || v.integer() < 0)
        return fail(error, where + " key \"" + key +
                               "\" must be a non-negative integer");
    out = std::uint64_t(v.integer());
    return true;
}

bool
readOptString(const Json &obj, const std::string &key,
              const std::string &where, std::string &out,
              std::string *error)
{
    if (!obj.has(key))
        return true;
    const Json &v = obj[key];
    if (v.kind() != Json::Kind::String)
        return fail(error,
                    where + " key \"" + key + "\" must be a string");
    out = v.str();
    return true;
}

bool
parseRole(const Json &obj, const std::string &where, FlowRole &out,
          std::string *error)
{
    std::string role;
    if (!readOptString(obj, "role", where, role, error))
        return false;
    if (role.empty() || role == "foreground")
        out = FlowRole::Foreground;
    else if (role == "background")
        out = FlowRole::Background;
    else
        return fail(error, where + " role \"" + role +
                               "\" is not \"foreground\" or "
                               "\"background\"");
    return true;
}

bool
parseTensor(const Json &v, const std::string &where, TensorSpec &out,
            std::string *error)
{
    if (!requireObject(v, where, error))
        return false;
    if (!checkKeys(v, {"vectors", "shape", "dtype"}, where, error))
        return false;

    const bool hasVectors = v.has("vectors");
    const bool hasShape = v.has("shape");
    if (hasVectors && hasShape)
        return fail(error, where + " has both \"vectors\" and \"shape\" "
                                   "— give exactly one");
    if (!hasVectors && !hasShape)
        return fail(error, where + " needs either \"vectors\" or "
                                   "\"shape\"");

    if (hasVectors) {
        std::uint64_t vectors = 0;
        if (!readUint(v, "vectors", where, vectors, error))
            return false;
        if (vectors == 0)
            return fail(error, where + " resolves to a zero-length "
                                       "tensor (vectors must be >= 1)");
        if (vectors > kMaxTensorVectors)
            return failTooBig(error, where, "vectors",
                              std::to_string(vectors) + " vectors");
        if (v.has("dtype"))
            return fail(error, where + " gives \"dtype\" without "
                                       "\"shape\"");
        out.vectors = std::uint32_t(vectors);
        out.hasShape = false;
        return true;
    }

    const Json &shape = v["shape"];
    if (shape.kind() != Json::Kind::Array || shape.size() != 2)
        return fail(error, where + " shape must be a [rows, cols] "
                                   "array");
    for (std::size_t i = 0; i < 2; ++i)
        if (shape.at(i).kind() != Json::Kind::Int ||
            shape.at(i).integer() < 0)
            return fail(error, where + " shape dimensions must be "
                                       "non-negative integers");
    out.rows = std::uint64_t(shape.at(0).integer());
    out.cols = std::uint64_t(shape.at(1).integer());
    out.dtype = "fp16";
    if (!readOptString(v, "dtype", where, out.dtype, error))
        return false;
    const int elem = dtypeBytes(out.dtype);
    if (elem == 0)
        return fail(error, where + " dtype \"" + out.dtype +
                               "\" is not one of fp16/fp32/int8");
    if (out.rows == 0 || out.cols == 0)
        return fail(error, where + " resolves to a zero-length tensor "
                                   "(shape dimensions must be >= 1)");
    // Divide rather than multiply, so huge dimensions cannot wrap.
    if (out.cols > kLocalMemBytes ||
        out.rows > kLocalMemBytes / (out.cols * std::uint64_t(elem)))
        return failTooBig(error, where, "shape",
                          std::to_string(out.rows) + " x " +
                              std::to_string(out.cols) + " " + out.dtype);
    const std::uint64_t bytes = out.rows * out.cols * std::uint64_t(elem);
    out.vectors = std::uint32_t((bytes + kVectorBytes - 1) / kVectorBytes);
    out.hasShape = true;
    return true;
}

bool
parseTopology(const Json &v, ScenarioTopology &out, std::string *error)
{
    const std::string where = "topology";
    if (!requireObject(v, where, error))
        return false;
    if (!checkKeys(v, {"kind", "size", "wiring"}, where, error))
        return false;

    std::string kind = "node";
    if (!readOptString(v, "kind", where, kind, error))
        return false;
    std::uint64_t size = 0;
    if (!readOptUint(v, "size", where, size, error))
        return false;

    if (kind == "node") {
        out.kind = ScenarioTopologyKind::Node;
        if (v.has("size") && size != 8)
            return fail(error, "topology kind \"node\" is always 8 "
                               "TSPs — drop \"size\" or use another "
                               "kind");
    } else if (kind == "ring") {
        out.kind = ScenarioTopologyKind::Ring;
        if (size < 3 || size > 64)
            return fail(error, "topology kind \"ring\" needs size in "
                               "3..64 TSPs");
    } else if (kind == "single_level") {
        out.kind = ScenarioTopologyKind::SingleLevel;
        if (size < 1 || size > 33)
            return fail(error, "topology kind \"single_level\" needs "
                               "size in 1..33 nodes");
    } else if (kind == "two_level") {
        out.kind = ScenarioTopologyKind::TwoLevel;
        if (size < 2 || size > 145)
            return fail(error, "topology kind \"two_level\" needs size "
                               "in 2..145 racks");
    } else if (kind == "system") {
        out.kind = ScenarioTopologyKind::System;
        if (size < 1 || size > 10440)
            return fail(error, "topology kind \"system\" needs size in "
                               "1..10440 TSPs");
    } else {
        return fail(error, "topology kind \"" + kind +
                               "\" is not one of "
                               "node/ring/single_level/two_level/"
                               "system");
    }
    out.size = unsigned(size);

    std::string wiring = "full_mesh";
    if (!readOptString(v, "wiring", where, wiring, error))
        return false;
    if (wiring == "full_mesh")
        out.wiring = NodeWiring::FullMesh;
    else if (wiring == "triple_ring")
        out.wiring = NodeWiring::TripleRing;
    else
        return fail(error, "topology wiring \"" + wiring +
                               "\" is not \"full_mesh\" or "
                               "\"triple_ring\"");
    return true;
}

bool
parseSsn(const Json &v, SsnConfig &out, std::string *error)
{
    const std::string where = "ssn";
    if (!requireObject(v, where, error))
        return false;
    if (!checkKeys(v, {"max_extra_hops", "max_paths", "load_balance"},
                   where, error))
        return false;
    std::uint64_t extra = out.maxExtraHops, paths = out.maxPaths;
    if (!readOptUint(v, "max_extra_hops", where, extra, error) ||
        !readOptUint(v, "max_paths", where, paths, error))
        return false;
    if (extra > 4)
        return fail(error, "ssn max_extra_hops must be <= 4");
    if (paths < 1 || paths > 64)
        return fail(error, "ssn max_paths must be in 1..64");
    out.maxExtraHops = unsigned(extra);
    out.maxPaths = unsigned(paths);
    if (v.has("load_balance")) {
        if (v["load_balance"].kind() != Json::Kind::Bool)
            return fail(error, "ssn load_balance must be a boolean");
        out.loadBalance = v["load_balance"].boolean();
    }
    return true;
}

bool
parseFlow(const Json &v, std::size_t index, ScenarioFlow &out,
          std::string *error)
{
    std::ostringstream ws;
    ws << "flow[" << index << "]";
    const std::string where = ws.str();
    if (!requireObject(v, where, error))
        return false;
    if (!checkKeys(v, {"id", "src", "dst", "tensor", "start", "role"},
                   where, error))
        return false;

    std::uint64_t id = 0, src = 0, dst = 0, start = 0;
    if (!readUint(v, "id", where, id, error) ||
        !readUint(v, "src", where, src, error) ||
        !readUint(v, "dst", where, dst, error) ||
        !readOptUint(v, "start", where, start, error))
        return false;
    if (id == 0 || id >= kFlowSyncToken)
        return fail(error, where + " id must be in 1.." +
                               std::to_string(kFlowSyncToken - 1) +
                               " (0 and the reserved top ids are not "
                               "schedulable)");
    if (!v.has("tensor"))
        return fail(error, where + " is missing required key "
                                   "\"tensor\"");
    if (!parseTensor(v["tensor"], where + " tensor", out.tensor, error))
        return false;
    if (!parseRole(v, where, out.role, error))
        return false;
    out.id = FlowId(id);
    out.src = TspId(src);
    out.dst = TspId(dst);
    out.start = Cycle(start);
    return true;
}

bool
parseCollective(const Json &v, std::size_t index, ScenarioCollective &out,
                std::string *error)
{
    std::ostringstream ws;
    ws << "collective[" << index << "]";
    const std::string where = ws.str();
    if (!requireObject(v, where, error))
        return false;
    if (!checkKeys(v,
                   {"op", "root", "vectors", "first_flow", "start",
                    "role"},
                   where, error))
        return false;

    std::string op;
    if (!readOptString(v, "op", where, op, error))
        return false;
    if (op == "broadcast")
        out.op = ScenarioCollectiveOp::Broadcast;
    else if (op == "gather")
        out.op = ScenarioCollectiveOp::Gather;
    else if (op == "reduce_scatter")
        out.op = ScenarioCollectiveOp::ReduceScatter;
    else if (op == "all_gather")
        out.op = ScenarioCollectiveOp::AllGather;
    else
        return fail(error, where + " op \"" + op +
                               "\" is not one of broadcast/gather/"
                               "reduce_scatter/all_gather");

    std::uint64_t root = 0, vectors = 0, first = 1, start = 0;
    if (!readOptUint(v, "root", where, root, error) ||
        !readUint(v, "vectors", where, vectors, error) ||
        !readOptUint(v, "first_flow", where, first, error) ||
        !readOptUint(v, "start", where, start, error))
        return false;
    if (vectors == 0)
        return fail(error, where + " resolves to a zero-length tensor "
                                   "(vectors must be >= 1)");
    if (vectors > kMaxTensorVectors)
        return failTooBig(error, where, "vectors",
                          std::to_string(vectors) +
                              " vectors per participant");
    if (first == 0 || first >= kFlowSyncToken)
        return fail(error, where + " first_flow must be in 1.." +
                               std::to_string(kFlowSyncToken - 1));
    if (!parseRole(v, where, out.role, error))
        return false;
    out.root = TspId(root);
    out.vectors = std::uint32_t(vectors);
    out.firstFlow = FlowId(first);
    out.start = Cycle(start);
    return true;
}

bool
parsePattern(const Json &v, std::size_t index, ScenarioPattern &out,
             std::string *error)
{
    std::ostringstream ws;
    ws << "pattern[" << index << "]";
    const std::string where = ws.str();
    if (!requireObject(v, where, error))
        return false;
    if (!checkKeys(v,
                   {"kind", "vectors", "seed", "first_flow", "start",
                    "role"},
                   where, error))
        return false;

    std::string kind;
    if (!readOptString(v, "kind", where, kind, error))
        return false;
    bool found = false;
    for (TrafficPattern p : allTrafficPatterns()) {
        if (kind == trafficPatternName(p)) {
            out.kind = p;
            found = true;
            break;
        }
    }
    if (!found)
        return fail(error, where + " kind \"" + kind +
                               "\" is not a known traffic pattern "
                               "(uniform-random, permutation, "
                               "bit-complement, transpose, "
                               "nearest-neighbor, all-to-one, "
                               "one-to-all)");

    std::uint64_t vectors = 0, seed = 1, first = 1, start = 0;
    if (!readUint(v, "vectors", where, vectors, error) ||
        !readOptUint(v, "seed", where, seed, error) ||
        !readOptUint(v, "first_flow", where, first, error) ||
        !readOptUint(v, "start", where, start, error))
        return false;
    if (vectors == 0)
        return fail(error, where + " resolves to a zero-length tensor "
                                   "(vectors must be >= 1)");
    if (vectors > kMaxTensorVectors)
        return failTooBig(error, where, "vectors",
                          std::to_string(vectors) + " vectors per flow");
    if (first == 0 || first >= kFlowSyncToken)
        return fail(error, where + " first_flow must be in 1.." +
                               std::to_string(kFlowSyncToken - 1));
    if (!parseRole(v, where, out.role, error))
        return false;
    out.vectors = std::uint32_t(vectors);
    out.seed = seed;
    out.firstFlow = FlowId(first);
    out.start = Cycle(start);
    return true;
}

Json
tensorToJson(const TensorSpec &t)
{
    Json v = Json::object();
    if (t.hasShape) {
        Json shape = Json::array();
        shape.push(Json(std::uint64_t(t.rows)));
        shape.push(Json(std::uint64_t(t.cols)));
        v.set("shape", std::move(shape));
        v.set("dtype", t.dtype);
    } else {
        v.set("vectors", Json(std::uint64_t(t.vectors)));
    }
    return v;
}

} // namespace

const char *
scenarioTopologyKindName(ScenarioTopologyKind k)
{
    switch (k) {
      case ScenarioTopologyKind::Node: return "node";
      case ScenarioTopologyKind::Ring: return "ring";
      case ScenarioTopologyKind::SingleLevel: return "single_level";
      case ScenarioTopologyKind::TwoLevel: return "two_level";
      case ScenarioTopologyKind::System: return "system";
    }
    return "?";
}

const char *
flowRoleName(FlowRole r)
{
    return r == FlowRole::Background ? "background" : "foreground";
}

const char *
scenarioCollectiveOpName(ScenarioCollectiveOp op)
{
    switch (op) {
      case ScenarioCollectiveOp::Broadcast: return "broadcast";
      case ScenarioCollectiveOp::Gather: return "gather";
      case ScenarioCollectiveOp::ReduceScatter: return "reduce_scatter";
      case ScenarioCollectiveOp::AllGather: return "all_gather";
    }
    return "?";
}

const char *
nodeWiringName(NodeWiring w)
{
    return w == NodeWiring::TripleRing ? "triple_ring" : "full_mesh";
}

Topology
ScenarioTopology::build() const
{
    switch (kind) {
      case ScenarioTopologyKind::Node:
        return Topology::makeNode(wiring);
      case ScenarioTopologyKind::Ring:
        return Topology::makeRing(size);
      case ScenarioTopologyKind::SingleLevel:
        return Topology::makeSingleLevel(size, wiring);
      case ScenarioTopologyKind::TwoLevel:
        return Topology::makeTwoLevel(size, wiring);
      case ScenarioTopologyKind::System:
        return Topology::forSystemSize(size);
    }
    return Topology::makeNode();
}

std::size_t
LoweredScenario::backgroundTransfers() const
{
    std::size_t n = 0;
    for (FlowRole r : roles)
        if (r == FlowRole::Background)
            ++n;
    return n;
}

LoweredScenario
lowerScenario(const Scenario &scenario, const Topology &topo)
{
    LoweredScenario out;
    auto append = [&out](std::vector<TensorTransfer> transfers,
                         FlowRole role) {
        for (auto &t : transfers) {
            out.transfers.push_back(t);
            out.roles.push_back(role);
        }
    };

    for (const ScenarioFlow &f : scenario.flows) {
        TensorTransfer t;
        t.flow = f.id;
        t.src = f.src;
        t.dst = f.dst;
        t.vectors = f.tensor.vectors;
        t.earliest = f.start;
        out.transfers.push_back(t);
        out.roles.push_back(f.role);
    }

    for (const ScenarioCollective &c : scenario.collectives) {
        switch (c.op) {
          case ScenarioCollectiveOp::Broadcast:
            append(broadcastTransfers(topo, c.root, c.vectors,
                                      c.firstFlow, c.start),
                   c.role);
            break;
          case ScenarioCollectiveOp::Gather:
            append(gatherTransfers(topo, c.root, c.vectors, c.firstFlow,
                                   c.start),
                   c.role);
            break;
          case ScenarioCollectiveOp::ReduceScatter:
            append(HierarchicalAllReduce(topo).reduceScatterTransfers(
                       Bytes(c.vectors) * kVectorBytes, c.firstFlow,
                       c.start),
                   c.role);
            break;
          case ScenarioCollectiveOp::AllGather:
            append(HierarchicalAllReduce(topo).allGatherTransfers(
                       Bytes(c.vectors) * kVectorBytes, c.firstFlow,
                       c.start),
                   c.role);
            break;
        }
    }

    for (const ScenarioPattern &p : scenario.patterns) {
        auto transfers =
            generateTraffic(topo, p.kind, p.vectors, p.seed);
        for (auto &t : transfers) {
            t.flow = p.firstFlow + (t.flow - 1);
            t.earliest = p.start;
        }
        append(std::move(transfers), p.role);
    }

    return out;
}

namespace {

/** The scenario-level checks; builds `topo` and lowers the traffic. */
bool
checkScenario(const Scenario &scenario, Topology &topo,
              LoweredScenario &lowered, std::string *error)
{
    if (scenario.mbe < 0.0 || scenario.mbe > 1.0)
        return fail(error, "mbe must be in [0, 1]");

    const bool nodeBased =
        scenario.topology.kind != ScenarioTopologyKind::Ring;
    for (std::size_t i = 0; i < scenario.collectives.size(); ++i) {
        const auto &c = scenario.collectives[i];
        if (!nodeBased &&
            (c.op == ScenarioCollectiveOp::ReduceScatter ||
             c.op == ScenarioCollectiveOp::AllGather)) {
            std::ostringstream ws;
            ws << "collective[" << i << "] op "
               << scenarioCollectiveOpName(c.op)
               << " needs a node-based topology (not a ring)";
            return fail(error, ws.str());
        }
    }

    topo = scenario.topology.build();
    const unsigned n = topo.numTsps();
    if (n < 2)
        return fail(error, "topology has fewer than 2 TSPs — nothing "
                           "to transfer");

    for (std::size_t i = 0; i < scenario.flows.size(); ++i) {
        const ScenarioFlow &f = scenario.flows[i];
        std::ostringstream ws;
        ws << "flow[" << i << "]";
        if (f.src >= n)
            return fail(error, ws.str() + " src chip " +
                                   std::to_string(f.src) +
                                   " out of range for topology \"" +
                                   topo.describe() + "\" (" +
                                   std::to_string(n) + " TSPs)");
        if (f.dst >= n)
            return fail(error, ws.str() + " dst chip " +
                                   std::to_string(f.dst) +
                                   " out of range for topology \"" +
                                   topo.describe() + "\" (" +
                                   std::to_string(n) + " TSPs)");
        if (f.src == f.dst)
            return fail(error, ws.str() + " src == dst (chip " +
                                   std::to_string(f.src) +
                                   ") — data never crosses a link");
    }
    for (std::size_t i = 0; i < scenario.collectives.size(); ++i) {
        const auto &c = scenario.collectives[i];
        if (c.root >= n) {
            std::ostringstream ws;
            ws << "collective[" << i << "] root chip " << c.root
               << " out of range (" << n << " TSPs)";
            return fail(error, ws.str());
        }
    }

    lowered = lowerScenario(scenario, topo);
    return true;
}

/** True when at least one of `t`'s links is in service. */
bool
inService(const Topology &topo, TspId t)
{
    for (const LinkId l : topo.linksAt(t))
        if (topo.linkEnabled(l))
            return true;
    return false;
}

} // namespace

std::optional<CompiledScenario>
compileScenario(const Scenario &scenario, std::string *error)
{
    Topology topo;
    LoweredScenario lowered;
    if (!checkScenario(scenario, topo, lowered, error))
        return std::nullopt;
    auto compiled = compileTransfers(
        std::move(topo), std::move(lowered.transfers), scenario.ssn, error);
    if (compiled)
        compiled->lowered.roles = std::move(lowered.roles);
    return compiled;
}

std::optional<CompiledScenario>
compileTransfers(Topology topo, std::vector<TensorTransfer> transfers,
                 SsnConfig ssn, std::string *error,
                 const std::unordered_map<FlowId, LocalAddr> &dstBase,
                 const std::unordered_map<FlowId, LocalAddr> &srcBase)
{
    CompiledScenario out;
    out.topo = std::move(topo);
    const unsigned n = out.topo.numTsps();
    std::unordered_map<FlowId, std::size_t> seen;
    for (std::size_t i = 0; i < transfers.size(); ++i) {
        const TensorTransfer &t = transfers[i];
        if (t.src >= n || t.dst >= n || t.src == t.dst) {
            fail(error, "flow " + std::to_string(t.flow) + " from chip " +
                            std::to_string(t.src) + " to chip " +
                            std::to_string(t.dst) +
                            " does not cross a link of the " +
                            std::to_string(n) + "-TSP topology");
            return std::nullopt;
        }
        for (const TspId end : {t.src, t.dst})
            if (!inService(out.topo, end)) {
                fail(error, "flow " + std::to_string(t.flow) +
                                " has an endpoint, chip " +
                                std::to_string(end) +
                                ", with no link in service");
                return std::nullopt;
            }
        if (auto [it, fresh] = seen.try_emplace(t.flow, i); !fresh) {
            fail(error, "flow id " + std::to_string(t.flow) +
                            " is used twice (transfers " +
                            std::to_string(it->second) + " and " +
                            std::to_string(i) +
                            ") — explicit flows, collectives and "
                            "patterns must use disjoint id ranges");
            return std::nullopt;
        }
    }
    out.lowered.roles.assign(transfers.size(), FlowRole::Foreground);
    out.lowered.transfers = std::move(transfers);

    SsnScheduler scheduler(out.topo, ssn);
    out.schedule = scheduler.schedule(out.lowered.transfers);
    if (!checkSchedule(out.schedule, out.topo, error))
        return std::nullopt;
    // The machine's stream-register buffering is finite, so a
    // schedulable transfer set can still oversubscribe a chip's
    // forwarding capacity: a diagnosis here, not a simulator panic.
    std::string capacity;
    if (!tryBuildPrograms(out.schedule, out.topo, dstBase, srcBase,
                          out.programs, &capacity)) {
        fail(error, "traffic oversubscribes the machine (" + capacity +
                        ") — reduce vectors, spread start cycles, or "
                        "stagger flows");
        return std::nullopt;
    }
    return out;
}

bool
checkSchedule(const NetworkSchedule &schedule, const Topology &topo,
              std::string *error)
{
    const ValidationReport report = validateSchedule(schedule, topo);
    if (report.ok)
        return true;
    return fail(error, "schedule breaks an SSN invariant (" +
                           report.firstViolation + ")");
}

bool
validateScenario(const Scenario &scenario, std::string *error)
{
    return compileScenario(scenario, error).has_value();
}

bool
scenarioFromJson(const Json &doc, Scenario &out, std::string *error)
{
    out = Scenario{};
    if (!requireObject(doc, "document", error))
        return false;
    if (!checkKeys(doc,
                   {"schema", "name", "seed", "mbe", "topology", "ssn",
                    "flows", "collectives", "patterns"},
                   "document", error))
        return false;

    if (!doc.has("schema"))
        return fail(error, "document is missing required key "
                           "\"schema\"");
    if (doc["schema"].kind() != Json::Kind::String ||
        doc["schema"].str() != kScenarioSchema)
        return fail(error,
                    "schema is \"" +
                        (doc["schema"].kind() == Json::Kind::String
                             ? doc["schema"].str()
                             : std::string("<not a string>")) +
                        "\", expected \"" + std::string(kScenarioSchema) +
                        "\"");

    if (!readOptString(doc, "name", "document", out.name, error))
        return false;
    if (out.name.empty())
        return fail(error, "document needs a non-empty \"name\"");
    if (!readOptUint(doc, "seed", "document", out.seed, error))
        return false;
    if (doc.has("mbe")) {
        if (!doc["mbe"].isNumber())
            return fail(error, "mbe must be a number in [0, 1]");
        out.mbe = doc["mbe"].number();
    }

    if (doc.has("topology") &&
        !parseTopology(doc["topology"], out.topology, error))
        return false;
    if (doc.has("ssn") && !parseSsn(doc["ssn"], out.ssn, error))
        return false;

    for (const char *listKey : {"flows", "collectives", "patterns"}) {
        if (!doc.has(listKey))
            continue;
        const Json &list = doc[listKey];
        if (list.kind() != Json::Kind::Array)
            return fail(error, std::string("\"") + listKey +
                                   "\" must be an array");
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (listKey == std::string("flows")) {
                ScenarioFlow f;
                if (!parseFlow(list.at(i), i, f, error))
                    return false;
                out.flows.push_back(std::move(f));
            } else if (listKey == std::string("collectives")) {
                ScenarioCollective c;
                if (!parseCollective(list.at(i), i, c, error))
                    return false;
                out.collectives.push_back(std::move(c));
            } else {
                ScenarioPattern p;
                if (!parsePattern(list.at(i), i, p, error))
                    return false;
                out.patterns.push_back(std::move(p));
            }
        }
    }

    if (out.flows.empty() && out.collectives.empty() &&
        out.patterns.empty())
        return fail(error, "document declares no traffic — give at "
                           "least one flow, collective or pattern");

    return validateScenario(out, error);
}

bool
parseScenario(const std::string &text, Scenario &out, std::string *error)
{
    std::string jsonError;
    const Json doc = Json::parse(text, &jsonError);
    if (doc.isNull() && !jsonError.empty())
        return fail(error, "invalid JSON: " + jsonError);
    return scenarioFromJson(doc, out, error);
}

bool
loadScenarioFile(const std::string &path, Scenario &out,
                 std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(error, "cannot open \"" + path + "\"");
    std::ostringstream text;
    text << in.rdbuf();
    if (!parseScenario(text.str(), out, error))
        return false;
    if (error)
        error->clear();
    return true;
}

Json
scenarioToJson(const Scenario &scenario)
{
    Json doc = Json::object();
    doc.set("schema", kScenarioSchema);
    doc.set("name", scenario.name);
    doc.set("seed", Json(scenario.seed));
    doc.set("mbe", Json(scenario.mbe));

    Json topo = Json::object();
    topo.set("kind", scenarioTopologyKindName(scenario.topology.kind));
    if (scenario.topology.kind != ScenarioTopologyKind::Node)
        topo.set("size", Json(std::uint64_t(scenario.topology.size)));
    topo.set("wiring", nodeWiringName(scenario.topology.wiring));
    doc.set("topology", std::move(topo));

    Json ssn = Json::object();
    ssn.set("max_extra_hops",
            Json(std::uint64_t(scenario.ssn.maxExtraHops)));
    ssn.set("max_paths", Json(std::uint64_t(scenario.ssn.maxPaths)));
    ssn.set("load_balance", Json(scenario.ssn.loadBalance));
    doc.set("ssn", std::move(ssn));

    if (!scenario.flows.empty()) {
        Json flows = Json::array();
        for (const ScenarioFlow &f : scenario.flows) {
            Json v = Json::object();
            v.set("id", Json(std::uint64_t(f.id)));
            v.set("src", Json(std::uint64_t(f.src)));
            v.set("dst", Json(std::uint64_t(f.dst)));
            v.set("tensor", tensorToJson(f.tensor));
            v.set("start", Json(std::uint64_t(f.start)));
            v.set("role", flowRoleName(f.role));
            flows.push(std::move(v));
        }
        doc.set("flows", std::move(flows));
    }

    if (!scenario.collectives.empty()) {
        Json collectives = Json::array();
        for (const ScenarioCollective &c : scenario.collectives) {
            Json v = Json::object();
            v.set("op", scenarioCollectiveOpName(c.op));
            if (c.op == ScenarioCollectiveOp::Broadcast ||
                c.op == ScenarioCollectiveOp::Gather)
                v.set("root", Json(std::uint64_t(c.root)));
            v.set("vectors", Json(std::uint64_t(c.vectors)));
            v.set("first_flow", Json(std::uint64_t(c.firstFlow)));
            v.set("start", Json(std::uint64_t(c.start)));
            v.set("role", flowRoleName(c.role));
            collectives.push(std::move(v));
        }
        doc.set("collectives", std::move(collectives));
    }

    if (!scenario.patterns.empty()) {
        Json patterns = Json::array();
        for (const ScenarioPattern &p : scenario.patterns) {
            Json v = Json::object();
            v.set("kind", trafficPatternName(p.kind));
            v.set("vectors", Json(std::uint64_t(p.vectors)));
            v.set("seed", Json(p.seed));
            v.set("first_flow", Json(std::uint64_t(p.firstFlow)));
            v.set("start", Json(std::uint64_t(p.start)));
            v.set("role", flowRoleName(p.role));
            patterns.push(std::move(v));
        }
        doc.set("patterns", std::move(patterns));
    }

    return doc;
}

std::string
dumpScenario(const Scenario &scenario)
{
    return scenarioToJson(scenario).dump(2) + "\n";
}

bool
saveScenarioFile(const std::string &path, const Scenario &scenario,
                 std::string *error)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return fail(error, "cannot write \"" + path + "\"");
    out << dumpScenario(scenario);
    out.flush();
    if (!out)
        return fail(error, "write to \"" + path + "\" failed");
    return true;
}

} // namespace tsm
