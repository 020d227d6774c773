#include "runtime/runtime.hh"

#include <algorithm>

#include "common/log.hh"
#include "runtime/machine.hh"

namespace tsm {

Runtime::Runtime(unsigned nodes, std::uint64_t seed)
    : nodes_(nodes), seed_(seed)
{
    TSM_ASSERT(nodes >= 2, "need at least one worker node plus the spare");
    nodeHealthy_.assign(nodes, true);
    // The highest-numbered node is held back as the hot spare.
    spareNode_ = nodes - 1;
}

std::vector<unsigned>
Runtime::activeNodes() const
{
    std::vector<unsigned> out;
    for (unsigned n = 0; n < nodes_; ++n) {
        if (!nodeHealthy_[n])
            continue;
        if (n == spareNode_ && !spareUsed_)
            continue; // held in reserve
        out.push_back(n);
    }
    return out;
}

std::vector<TspId>
Runtime::activeTsps() const
{
    std::vector<TspId> out;
    for (unsigned n : activeNodes())
        for (unsigned i = 0; i < kTspsPerNode; ++i)
            out.push_back(n * kTspsPerNode + i);
    return out;
}

unsigned
Runtime::logicalTsps() const
{
    return unsigned(activeNodes().size()) * kTspsPerNode;
}

std::optional<std::uint64_t>
Runtime::attempt(const WorkBuilder &work, const FaultScenario &fault,
                 bool fault_active, Tick &completion, std::string *error)
{
    const std::uint64_t seed = seed_ + (++runCounter_);

    // Build the physical topology, take failed nodes out of service.
    Topology topo = Topology::makeSingleLevel(nodes_);
    for (unsigned n = 0; n < nodes_; ++n)
        if (!nodeHealthy_[n])
            topo.disableNode(n);

    // Compile: transfers -> schedule -> per-chip programs.
    auto transfers = work(topo, activeTsps());
    const auto compiled =
        compileTransfers(std::move(topo), std::move(transfers), {}, error);
    if (!compiled)
        return std::nullopt;
    Machine machine(*compiled, seed);
    const std::vector<Link> &links = compiled->topo.links();

    // Inject the scenario's marginal-node behaviour.
    if (fault_active && fault.faultyNode != ~0u) {
        ErrorModel em;
        em.mbePerVector = fault.mbeRate;
        const TspId lo = fault.faultyNode * kTspsPerNode;
        const TspId hi = lo + kTspsPerNode;
        for (LinkId l = 0; l < links.size(); ++l) {
            const Link &link = links[l];
            if ((link.a >= lo && link.a < hi) ||
                (link.b >= lo && link.b < hi))
                machine.net().setLinkErrorModel(l, em);
        }
    }

    machine.run();
    for (TspId t = 0; t < machine.numTsps(); ++t)
        TSM_ASSERT(machine.chip(t).halted(), "inference wedged");
    completion = machine.eventq().now();

    // Triangulate the suspect node from the per-link FEC counters:
    // the node appearing in the most erroring links is the suspect.
    std::vector<std::uint64_t> node_errors(nodes_, 0);
    for (LinkId l = 0; l < links.size(); ++l) {
        const auto &st = machine.net().linkStats(l);
        if (st.mbeDetected == 0)
            continue;
        const Link &link = links[l];
        node_errors[link.a / kTspsPerNode] += st.mbeDetected;
        node_errors[link.b / kTspsPerNode] += st.mbeDetected;
    }
    lastSuspectNode_ = ~0u;
    std::uint64_t best = 0;
    for (unsigned n = 0; n < nodes_; ++n) {
        if (node_errors[n] > best) {
            best = node_errors[n];
            lastSuspectNode_ = n;
        }
    }
    return machine.criticalErrors();
}

void
Runtime::swapSpare(unsigned node)
{
    TSM_ASSERT(!spareUsed_, "hot spare already consumed");
    nodeHealthy_[node] = false;
    spareUsed_ = true;
    inform("runtime: node {} out of service, hot spare node {} swapped in",
           node, spareNode_);
}

RunReport
Runtime::runInference(const WorkBuilder &work, const FaultScenario &fault,
                      unsigned max_attempts)
{
    RunReport report;
    bool fault_active = fault.faultyNode != ~0u;
    for (unsigned a = 0; a < max_attempts; ++a) {
        ++report.attempts;
        Tick completion = kTickInvalid;
        const auto mbes =
            attempt(work, fault, fault_active, completion, &report.error);
        if (!mbes)
            return report;
        report.mbesObserved += *mbes;
        if (*mbes == 0) {
            report.success = true;
            report.completion = completion;
            return report;
        }
        // A fault was detected: decide transient vs persistent.
        if (!fault.persistent) {
            // Transient: the replay will be clean.
            fault_active = false;
        } else if (report.attempts >= 2 && !spareUsed_ &&
                   lastSuspectNode_ != ~0u) {
            // Persistent across a replay: replace the triangulated
            // marginal node (paper: "requires physical intervention
            // ... to remedy the fault" — until then, the spare).
            report.failedNode = lastSuspectNode_;
            report.spareSwapped = true;
            swapSpare(lastSuspectNode_);
        }
    }
    return report;
}

} // namespace tsm
