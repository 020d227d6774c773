#include "collective/allreduce.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace tsm {

HierarchicalAllReduce::HierarchicalAllReduce(const Topology &topo,
                                             AllReduceConfig config)
    : topo_(&topo), config_(config)
{
    // The all-to-all exchange saturates every direct link; detours
    // would only collide with other slices' traffic.
    config_.ssn.maxExtraHops = 0;
    config_.ssn.maxPaths = 4;
}

namespace {

/** Slice size each participant owns, in vectors. */
std::uint32_t
sliceVectors(Bytes tensor_bytes, unsigned n)
{
    return std::uint32_t(
        (bytesToVectors(tensor_bytes) + n - 1) / n);
}

/** All ordered intra-node pairs, one transfer per pair. */
std::vector<TensorTransfer>
intraNodeAllToAll(const Topology &topo, std::uint32_t vectors,
                  FlowId first_flow, Cycle earliest)
{
    std::vector<TensorTransfer> out;
    FlowId flow = first_flow;
    for (unsigned node = 0; node < topo.numNodes(); ++node) {
        const TspId base = node * kTspsPerNode;
        for (unsigned i = 0; i < kTspsPerNode; ++i) {
            for (unsigned j = 0; j < kTspsPerNode; ++j) {
                if (i == j)
                    continue;
                TensorTransfer t;
                t.flow = flow++;
                t.src = base + i;
                t.dst = base + j;
                t.vectors = vectors;
                t.earliest = earliest;
                out.push_back(t);
            }
        }
    }
    return out;
}

} // namespace

std::vector<TensorTransfer>
HierarchicalAllReduce::reduceScatterTransfers(Bytes tensor_bytes,
                                              FlowId first_flow,
                                              Cycle earliest) const
{
    return intraNodeAllToAll(*topo_, sliceVectors(tensor_bytes,
                                                  kTspsPerNode),
                             first_flow, earliest);
}

std::vector<TensorTransfer>
HierarchicalAllReduce::allGatherTransfers(Bytes tensor_bytes,
                                          FlowId first_flow,
                                          Cycle earliest) const
{
    // Same all-to-all pattern: each owner broadcasts its reduced slice
    // to the 7 peers (pairwise over the direct links).
    return intraNodeAllToAll(*topo_, sliceVectors(tensor_bytes,
                                                  kTspsPerNode),
                             first_flow, earliest);
}

AllReduceResult
HierarchicalAllReduce::scheduled(Bytes tensor_bytes) const
{
    const unsigned nodes = topo_->numNodes();
    const unsigned n = kTspsPerNode * nodes;
    const std::uint32_t slice = sliceVectors(tensor_bytes, kTspsPerNode);
    const Cycle reduce_cycles =
        Cycle(std::ceil(double(slice) * config_.reduceCyclesPerVector));

    SsnScheduler scheduler(*topo_, config_.ssn);

    // Stage 1: per-node reduce-scatter (all nodes run concurrently).
    auto transfers = reduceScatterTransfers(tensor_bytes, 1, 0);
    const auto sched1 = scheduler.schedule(transfers);
    Cycle ready = sched1.makespan + reduce_cycles;
    FlowId next_flow = FlowId(transfers.size() + 1);

    // Stage 2 (multi-node only): each slice owner exchanges its
    // reduced slice with its counterpart TSPs in every other node,
    // then fuses the remote partials — an all-to-all between
    // counterpart sets over the global links.
    if (nodes > 1) {
        std::vector<TensorTransfer> stage2;
        for (unsigned na = 0; na < nodes; ++na) {
            for (unsigned nb = 0; nb < nodes; ++nb) {
                if (na == nb)
                    continue;
                for (unsigned s = 0; s < kTspsPerNode; ++s) {
                    TensorTransfer t;
                    t.flow = next_flow++;
                    t.src = na * kTspsPerNode + s;
                    t.dst = nb * kTspsPerNode + s;
                    t.vectors = slice;
                    t.earliest = ready;
                    stage2.push_back(t);
                }
            }
        }
        std::vector<TensorTransfer> upto2 = transfers;
        upto2.insert(upto2.end(), stage2.begin(), stage2.end());
        const auto sched2 = scheduler.schedule(upto2);
        ready = sched2.makespan + reduce_cycles;
        transfers = std::move(upto2);
    }

    // Stage 3: per-node all-gather of the fully reduced slices.
    auto gather = allGatherTransfers(tensor_bytes, next_flow, ready);
    std::vector<TensorTransfer> all = std::move(transfers);
    all.insert(all.end(), gather.begin(), gather.end());
    const auto sched = scheduler.schedule(all);

    AllReduceResult result;
    result.n = n;
    result.cycles = sched.makespan;
    result.seconds = double(sched.makespan) / kCoreFreqHz;
    result.busBandwidthBytesPerSec = 2.0 * double(n - 1) / double(n) *
                                     double(tensor_bytes) /
                                     result.seconds;
    return result;
}

AllReduceResult
HierarchicalAllReduce::analytic(Bytes tensor_bytes) const
{
    const unsigned n = kTspsPerNode;
    const std::uint32_t slice = sliceVectors(tensor_bytes, n);
    const Cycle window = kScheduleWindowCycles;
    const Cycle flight = flightCycles(LinkClass::IntraNode);

    // Stage 1 (intra-node reduce-scatter): each TSP streams 7 slices
    // in parallel on its 7 links; the issue unit staggers the 7
    // streams by up to 7 cycles.
    const Cycle stagger = kTspsPerNode - 1;
    const Cycle t_stage1 =
        Cycle(slice - 1) * window + flight + kRxMarginCycles + stagger;

    // Fused VXM reduction of the arriving slices.
    const Cycle t_reduce =
        Cycle(std::ceil(double(slice) * config_.reduceCyclesPerVector));

    unsigned participants = n;
    Cycle t_stage2 = 0;
    if (topo_->numNodes() > 1) {
        // Inter-node all-reduce of each slice among counterpart TSPs
        // over the ~4 global links per TSP.
        const unsigned nodes = topo_->numNodes();
        participants = n * nodes;
        const LinkClass cls = topo_->numRacks() > 1
                                  ? LinkClass::InterRack
                                  : LinkClass::IntraRack;
        const double shard = double(slice) * double(nodes - 1) /
                             double(nodes) / double(kGlobalPortsPerTsp);
        t_stage2 = Cycle(2.0 * shard * double(window)) +
                   2 * flightCycles(cls) + t_reduce;
    }

    // Stage 3 (intra-node all-gather): mirror of stage 1.
    const Cycle t_stage3 = t_stage1;

    AllReduceResult result;
    result.n = participants;
    result.cycles = t_stage1 + t_reduce + t_stage2 + t_stage3;
    result.seconds = double(result.cycles) / kCoreFreqHz;
    result.busBandwidthBytesPerSec = 2.0 *
                                     double(participants - 1) /
                                     double(participants) *
                                     double(tensor_bytes) /
                                     result.seconds;
    return result;
}

double
HierarchicalAllReduce::smallMessageLatencySec() const
{
    // Paper §5.6: local hop, global hop, local hop — pipelined vector
    // reductions at each stage.
    double ps = double(hopLatencyPs(LinkClass::IntraNode));
    if (topo_->numNodes() > 1) {
        const LinkClass cls = topo_->numRacks() > 1 ||
                                      topo_->numNodes() > kNodesPerRack
                                  ? LinkClass::InterRack
                                  : LinkClass::IntraRack;
        ps += double(hopLatencyPs(cls));
        ps += double(hopLatencyPs(LinkClass::IntraNode));
    }
    return ps / 1e12;
}

} // namespace tsm
