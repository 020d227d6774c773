/**
 * @file
 * The HAC spanning tree and system-wide synchronization (paper §3.1):
 * "a spanning tree of parent/child HAC relationships is established to
 * maintain a common HAC reference time distributed across the network."
 */

#ifndef TSM_SYNC_SYNC_TREE_HH
#define TSM_SYNC_SYNC_TREE_HH

#include <memory>
#include <vector>

#include "arch/chip.hh"
#include "net/topology.hh"
#include "sync/hac_aligner.hh"

namespace tsm {

/** One parent→child relationship in the HAC spanning tree. */
struct TreeEdge
{
    TspId parent = kTspInvalid;
    TspId child = kTspInvalid;
    LinkId link = kLinkInvalid;

    /** One-way latency estimate in core cycles (from characterization
     *  or, by default, the link class nominal). */
    double latencyCycles = 0.0;
};

/** A BFS spanning tree over a topology rooted at a chosen TSP. */
class SyncTree
{
  public:
    /** Build a breadth-first spanning tree rooted at `root`. */
    static SyncTree build(const Topology &topo, TspId root = 0);

    TspId root() const { return root_; }
    const std::vector<TreeEdge> &edges() const { return edges_; }

    /** Tree depth of a TSP (root = 0). */
    unsigned depthOf(TspId t) const { return depth_[t]; }

    /** Height of the tree (max depth). */
    unsigned height() const { return height_; }

    /** The edge whose child is `t`, or nullptr for the root. */
    const TreeEdge *parentEdge(TspId t) const;

    /** Edges whose parent is `t`. */
    std::vector<const TreeEdge *> childEdges(TspId t) const;

  private:
    TspId root_ = 0;
    std::vector<TreeEdge> edges_;
    std::vector<unsigned> depth_;
    unsigned height_ = 0;
};

/**
 * Owns one HacAligner per tree edge and steers every chip's HAC toward
 * the root's time base.
 */
class SystemSynchronizer
{
  public:
    /**
     * @param chips All chips, indexed by TspId.
     * @param tree The spanning tree (edge latencies already filled in).
     * @param config Shared aligner configuration.
     */
    SystemSynchronizer(const std::vector<TspChip *> &chips,
                       const SyncTree &tree, HacAlignerConfig config = {});

    /** Begin periodic updates on every edge. */
    void start();

    /** Stop all aligners. */
    void stop();

    /** True once every edge's aligner reports convergence. */
    bool allConverged() const;

    /** Worst current per-edge misalignment magnitude in cycles. */
    int worstDelta() const;

    /**
     * Global epoch skew: the spread (in picoseconds) of the chips'
     * next HAC epoch boundaries, measured circularly over one epoch.
     * Zero means all chips' epochs start simultaneously.
     */
    Tick epochSkewPs(Tick at) const;

  private:
    std::vector<TspChip *> chips_;
    std::vector<std::unique_ptr<HacAligner>> aligners_;
};

} // namespace tsm

#endif // TSM_SYNC_SYNC_TREE_HH
