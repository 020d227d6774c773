#include "sync/sync_tree.hh"

#include <algorithm>
#include <deque>

#include "common/log.hh"

namespace tsm {

SyncTree
SyncTree::build(const Topology &topo, TspId root)
{
    SyncTree tree;
    tree.root_ = root;
    tree.depth_.assign(topo.numTsps(), ~0u);
    tree.depth_[root] = 0;
    std::deque<TspId> queue{root};
    while (!queue.empty()) {
        const TspId cur = queue.front();
        queue.pop_front();
        for (LinkId l : topo.linksAt(cur)) {
            if (!topo.linkEnabled(l))
                continue;
            const TspId next = topo.links()[l].peer(cur);
            if (tree.depth_[next] != ~0u)
                continue;
            tree.depth_[next] = tree.depth_[cur] + 1;
            tree.height_ = std::max(tree.height_, tree.depth_[next]);
            TreeEdge e;
            e.parent = cur;
            e.child = next;
            e.link = l;
            e.latencyCycles =
                double(linkPropagationPs(topo.links()[l].cls)) /
                kCorePeriodPs;
            tree.edges_.push_back(e);
            queue.push_back(next);
        }
    }
    for (unsigned d : tree.depth_)
        TSM_ASSERT(d != ~0u, "topology is disconnected; no spanning tree");
    return tree;
}

const TreeEdge *
SyncTree::parentEdge(TspId t) const
{
    for (const auto &e : edges_)
        if (e.child == t)
            return &e;
    return nullptr;
}

std::vector<const TreeEdge *>
SyncTree::childEdges(TspId t) const
{
    std::vector<const TreeEdge *> out;
    for (const auto &e : edges_)
        if (e.parent == t)
            out.push_back(&e);
    return out;
}

SystemSynchronizer::SystemSynchronizer(const std::vector<TspChip *> &chips,
                                       const SyncTree &tree,
                                       HacAlignerConfig config)
    : chips_(chips)
{
    for (const auto &e : tree.edges()) {
        aligners_.push_back(std::make_unique<HacAligner>(
            *chips_[e.parent], *chips_[e.child], e.link, e.latencyCycles,
            config));
    }
}

void
SystemSynchronizer::start()
{
    for (auto &a : aligners_)
        a->start();
}

void
SystemSynchronizer::stop()
{
    for (auto &a : aligners_)
        a->stop();
}

bool
SystemSynchronizer::allConverged() const
{
    return std::all_of(aligners_.begin(), aligners_.end(),
                       [](const auto &a) { return a->converged(); });
}

int
SystemSynchronizer::worstDelta() const
{
    int worst = 0;
    for (const auto &a : aligners_)
        worst = std::max(worst, std::abs(a->lastDelta()));
    return worst;
}

Tick
SystemSynchronizer::epochSkewPs(Tick at) const
{
    // Collect each chip's phase within [0, epoch) and measure the
    // smallest circular arc containing all phases.
    const double period = double(kHacPeriodCycles) * kCorePeriodPs;
    std::vector<double> phases;
    phases.reserve(chips_.size());
    for (const TspChip *c : chips_) {
        const Tick next = c->nextEpochStart(at);
        phases.push_back(double(next - at));
    }
    std::sort(phases.begin(), phases.end());
    // Largest gap between consecutive phases (circularly); the skew is
    // the rest of the circle.
    double largest_gap = period - phases.back() + phases.front();
    for (std::size_t i = 1; i < phases.size(); ++i)
        largest_gap = std::max(largest_gap, phases[i] - phases[i - 1]);
    return Tick(std::max(0.0, period - largest_gap));
}

} // namespace tsm
