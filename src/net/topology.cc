#include "net/topology.hh"

#include <algorithm>
#include <deque>
#include <queue>

#include "common/format.hh"
#include "common/log.hh"

namespace tsm {

const char *
linkClassName(LinkClass cls)
{
    switch (cls) {
      case LinkClass::IntraNode: return "intra-node";
      case LinkClass::IntraRack: return "intra-rack";
      case LinkClass::InterRack: return "inter-rack";
    }
    return "?";
}

void
Topology::addLink(TspId a, TspId b, LinkClass cls)
{
    TSM_ASSERT(a < numTsps_ && b < numTsps_ && a != b,
               "link endpoints out of range");
    Link link;
    link.a = a;
    link.b = b;
    link.cls = cls;
    if (cls == LinkClass::IntraNode) {
        TSM_ASSERT(nextLocalPort_[a] < kLocalPortsPerTsp &&
                       nextLocalPort_[b] < kLocalPortsPerTsp,
                   "local port budget (7) exhausted");
        link.portA = nextLocalPort_[a]++;
        link.portB = nextLocalPort_[b]++;
    } else {
        TSM_ASSERT(nextGlobalPort_[a] < kGlobalPortsPerTsp &&
                       nextGlobalPort_[b] < kGlobalPortsPerTsp,
                   "global port budget (4) exhausted");
        link.portA = std::uint8_t(kLocalPortsPerTsp + nextGlobalPort_[a]++);
        link.portB = std::uint8_t(kLocalPortsPerTsp + nextGlobalPort_[b]++);
    }
    links_.push_back(link);
}

void
Topology::wireNode(unsigned n, NodeWiring wiring)
{
    const TspId base = n * kTspsPerNode;
    if (wiring == NodeWiring::FullMesh) {
        // 28 internal cables: all-to-all over the 7 local ports.
        for (unsigned i = 0; i < kTspsPerNode; ++i)
            for (unsigned j = i + 1; j < kTspsPerNode; ++j)
                addLink(base + i, base + j, LinkClass::IntraNode);
    } else {
        // Radix-8 ring, triple-connected: 3 parallel links to each of
        // the two ring neighbours uses 6 of the 7 local ports; the
        // seventh connects to the diametrically opposite TSP, closing
        // the "torus" with a long diagonal.
        for (unsigned i = 0; i < kTspsPerNode; ++i) {
            const unsigned j = (i + 1) % kTspsPerNode;
            for (unsigned k = 0; k < 3; ++k)
                addLink(base + i, base + j, LinkClass::IntraNode);
        }
        for (unsigned i = 0; i < kTspsPerNode / 2; ++i)
            addLink(base + i, base + i + kTspsPerNode / 2,
                    LinkClass::IntraNode);
    }
}

Topology
Topology::makeNode(NodeWiring wiring)
{
    Topology t;
    t.numTsps_ = kTspsPerNode;
    t.numNodes_ = 1;
    t.nextLocalPort_.assign(t.numTsps_, 0);
    t.nextGlobalPort_.assign(t.numTsps_, 0);
    t.wireNode(0, wiring);
    t.finalize();
    return t;
}

Topology
Topology::makeRing(unsigned n)
{
    TSM_ASSERT(n >= 3 && n <= 64, "ring supports 3..64 TSPs");
    Topology t;
    t.numTsps_ = n;
    t.numNodes_ = (n + kTspsPerNode - 1) / kTspsPerNode;
    t.nextLocalPort_.assign(n, 0);
    t.nextGlobalPort_.assign(n, 0);
    for (unsigned i = 0; i < n; ++i)
        t.addLink(i, (i + 1) % n, LinkClass::IntraNode);
    t.finalize();
    return t;
}

Topology
Topology::makeSingleLevel(unsigned num_nodes, NodeWiring wiring)
{
    TSM_ASSERT(num_nodes >= 1 && num_nodes <= kMaxNodesSingleLevel,
               "single-level dragonfly supports 1..33 nodes");
    if (num_nodes == 1)
        return makeNode(wiring);

    Topology t;
    t.numTsps_ = num_nodes * kTspsPerNode;
    t.numNodes_ = num_nodes;
    t.nextLocalPort_.assign(t.numTsps_, 0);
    t.nextGlobalPort_.assign(t.numTsps_, 0);
    for (unsigned n = 0; n < num_nodes; ++n)
        t.wireNode(n, wiring);

    // The node is a 32-port virtual router; spare ports become
    // parallel links between node pairs.
    const unsigned ports_per_node = kTspsPerNode * kGlobalPortsPerTsp;
    const unsigned links_per_pair =
        std::max(1u, ports_per_node / (num_nodes - 1));
    // Global links within one system fit in a rack (or a few racks);
    // treat them as intra-rack electrical cables.
    for (unsigned i = 0; i < num_nodes; ++i) {
        for (unsigned j = i + 1; j < num_nodes; ++j) {
            for (unsigned l = 0; l < links_per_pair; ++l) {
                // Attach parallel links at rotating TSP offsets so the
                // load spreads over all 8 TSPs of both nodes.
                const TspId a =
                    i * kTspsPerNode + TspId((j + l) % kTspsPerNode);
                const TspId b =
                    j * kTspsPerNode + TspId((i + l) % kTspsPerNode);
                if (t.nextGlobalPort_[a] < kGlobalPortsPerTsp &&
                    t.nextGlobalPort_[b] < kGlobalPortsPerTsp) {
                    t.addLink(a, b, LinkClass::IntraRack);
                } else {
                    // Fall back to any node-local TSP with a free port.
                    TspId fa = kTspInvalid, fb = kTspInvalid;
                    for (unsigned k = 0; k < kTspsPerNode; ++k) {
                        const TspId cand = i * kTspsPerNode + k;
                        if (t.nextGlobalPort_[cand] < kGlobalPortsPerTsp) {
                            fa = cand;
                            break;
                        }
                    }
                    for (unsigned k = 0; k < kTspsPerNode; ++k) {
                        const TspId cand = j * kTspsPerNode + k;
                        if (t.nextGlobalPort_[cand] < kGlobalPortsPerTsp) {
                            fb = cand;
                            break;
                        }
                    }
                    if (fa != kTspInvalid && fb != kTspInvalid)
                        t.addLink(fa, fb, LinkClass::IntraRack);
                }
            }
        }
    }

    // Second pass: the floor division above can strand ports (e.g. 24
    // nodes leave 32 - 23 = 9 ports unused per node). Spend them on
    // extra parallel links, always topping up the least-connected
    // feasible pair first, so the global bandwidth profile stays flat
    // (paper Fig 2) and no pair is starved.
    auto free_port_tsp = [&](unsigned node) -> TspId {
        for (unsigned k = 0; k < kTspsPerNode; ++k) {
            const TspId cand = node * kTspsPerNode + k;
            if (t.nextGlobalPort_[cand] < kGlobalPortsPerTsp)
                return cand;
        }
        return kTspInvalid;
    };
    std::vector<std::vector<unsigned>> pair_count(
        num_nodes, std::vector<unsigned>(num_nodes, 0));
    for (const auto &l : t.links_) {
        if (l.cls == LinkClass::IntraNode)
            continue;
        ++pair_count[l.a / kTspsPerNode][l.b / kTspsPerNode];
        ++pair_count[l.b / kTspsPerNode][l.a / kTspsPerNode];
    }
    for (;;) {
        unsigned best_i = 0, best_j = 0, best = ~0u;
        for (unsigned i = 0; i < num_nodes; ++i) {
            if (free_port_tsp(i) == kTspInvalid)
                continue;
            for (unsigned j = i + 1; j < num_nodes; ++j) {
                if (free_port_tsp(j) == kTspInvalid)
                    continue;
                if (pair_count[i][j] < best) {
                    best = pair_count[i][j];
                    best_i = i;
                    best_j = j;
                }
            }
        }
        // Stop once only over-connected pairs remain feasible (the
        // endgame would otherwise dump every leftover port between
        // the last two port-rich nodes); stranded ports stay unused,
        // as on real deployments.
        if (best == ~0u || best >= links_per_pair + 2)
            break;
        t.addLink(free_port_tsp(best_i), free_port_tsp(best_j),
                  LinkClass::IntraRack);
        ++pair_count[best_i][best_j];
        ++pair_count[best_j][best_i];
    }
    t.finalize();
    return t;
}

Topology
Topology::makeTwoLevel(unsigned num_racks, NodeWiring wiring)
{
    TSM_ASSERT(num_racks >= 2 && num_racks <= kMaxRacks,
               "two-level dragonfly supports 2..145 racks");
    Topology t;
    const unsigned tsps_per_rack = kNodesPerRack * kTspsPerNode; // 72
    t.numTsps_ = num_racks * tsps_per_rack;
    t.numNodes_ = num_racks * kNodesPerRack;
    t.numRacks_ = num_racks;
    t.nextLocalPort_.assign(t.numTsps_, 0);
    t.nextGlobalPort_.assign(t.numTsps_, 0);
    for (unsigned n = 0; n < t.numNodes_; ++n)
        t.wireNode(n, wiring);

    // Stage 1: doubly-connect the 9 nodes within each rack (2x internal
    // speedup): 36 node pairs x 2 links = 144 ports per rack, i.e. 2 of
    // the 4 global ports of every TSP.
    for (unsigned r = 0; r < num_racks; ++r) {
        const unsigned node_base = r * kNodesPerRack;
        for (unsigned i = 0; i < kNodesPerRack; ++i) {
            for (unsigned j = i + 1; j < kNodesPerRack; ++j) {
                for (unsigned l = 0; l < 2; ++l) {
                    const TspId a = (node_base + i) * kTspsPerNode +
                                    TspId((j + l * 4) % kTspsPerNode);
                    const TspId b = (node_base + j) * kTspsPerNode +
                                    TspId((i + l * 4) % kTspsPerNode);
                    t.addLink(a, b, LinkClass::IntraRack);
                }
            }
        }
    }

    // Stage 2: the remaining 144 ports per rack connect the racks
    // all-to-all.
    const unsigned inter_ports_per_rack = 144;
    const unsigned links_per_rack_pair =
        std::max(1u, inter_ports_per_rack / (num_racks - 1));
    // Round-robin cursor over the rack's TSPs with free global ports.
    std::vector<unsigned> cursor(num_racks, 0);
    auto next_free = [&](unsigned rack) -> TspId {
        const TspId base = rack * tsps_per_rack;
        for (unsigned probe = 0; probe < tsps_per_rack; ++probe) {
            const TspId cand = base + TspId((cursor[rack] + probe) %
                                            tsps_per_rack);
            if (t.nextGlobalPort_[cand] < kGlobalPortsPerTsp) {
                cursor[rack] = (cursor[rack] + probe + 1) % tsps_per_rack;
                return cand;
            }
        }
        return kTspInvalid;
    };
    for (unsigned i = 0; i < num_racks; ++i) {
        for (unsigned j = i + 1; j < num_racks; ++j) {
            for (unsigned l = 0; l < links_per_rack_pair; ++l) {
                const TspId a = next_free(i);
                const TspId b = next_free(j);
                if (a == kTspInvalid || b == kTspInvalid)
                    break;
                t.addLink(a, b, LinkClass::InterRack);
            }
        }
    }

    // Spend stranded inter-rack ports on extra links, least-connected
    // rack pair first (same policy as the single-level builder), so
    // the Fig 2 global bandwidth profile stays flat mid-scale.
    std::vector<std::vector<unsigned>> rack_pairs(
        num_racks, std::vector<unsigned>(num_racks, 0));
    for (const auto &l : t.links_) {
        if (l.cls != LinkClass::InterRack)
            continue;
        const unsigned ra = l.a / tsps_per_rack;
        const unsigned rb = l.b / tsps_per_rack;
        ++rack_pairs[ra][rb];
        ++rack_pairs[rb][ra];
    }
    for (;;) {
        unsigned best_i = 0, best_j = 0, best = ~0u;
        for (unsigned i = 0; i < num_racks; ++i) {
            if (next_free(i) == kTspInvalid)
                continue;
            for (unsigned j = i + 1; j < num_racks; ++j) {
                if (next_free(j) == kTspInvalid)
                    continue;
                if (rack_pairs[i][j] < best) {
                    best = rack_pairs[i][j];
                    best_i = i;
                    best_j = j;
                }
            }
        }
        if (best == ~0u || best >= links_per_rack_pair + 2)
            break;
        t.addLink(next_free(best_i), next_free(best_j),
                  LinkClass::InterRack);
        ++rack_pairs[best_i][best_j];
        ++rack_pairs[best_j][best_i];
    }
    t.finalize();
    return t;
}

Topology
Topology::forSystemSize(unsigned num_tsps)
{
    TSM_ASSERT(num_tsps >= 1, "need at least one TSP");
    if (num_tsps <= kTspsPerNode)
        return makeNode();
    const unsigned nodes =
        (num_tsps + kTspsPerNode - 1) / kTspsPerNode;
    if (nodes <= kMaxNodesSingleLevel)
        return makeSingleLevel(nodes);
    const unsigned racks = (nodes + kNodesPerRack - 1) / kNodesPerRack;
    TSM_ASSERT(racks <= kMaxRacks,
               "system exceeds the 10,440-TSP maximum configuration");
    return makeTwoLevel(racks);
}

void
Topology::finalize()
{
    adj_.assign(numTsps_, {});
    for (LinkId l = 0; l < links_.size(); ++l) {
        adj_[links_[l].a].push_back(l);
        adj_[links_[l].b].push_back(l);
    }
    enabled_.assign(links_.size(), true);
    nextLocalPort_.clear();
    nextGlobalPort_.clear();
}

std::optional<LinkId>
Topology::linkAtPort(TspId t, unsigned port) const
{
    for (LinkId l : adj_[t])
        if (links_[l].portAt(t) == port)
            return l;
    return std::nullopt;
}

std::vector<LinkId>
Topology::linksBetween(TspId a, TspId b) const
{
    std::vector<LinkId> out;
    for (LinkId l : adj_[a])
        if (enabled_[l] && links_[l].peer(a) == b)
            out.push_back(l);
    return out;
}

unsigned
Topology::distance(TspId src, TspId dst) const
{
    if (src == dst)
        return 0;
    std::vector<unsigned> dist(numTsps_, ~0u);
    std::deque<TspId> queue{src};
    dist[src] = 0;
    while (!queue.empty()) {
        const TspId cur = queue.front();
        queue.pop_front();
        for (LinkId l : adj_[cur]) {
            if (!enabled_[l])
                continue;
            const TspId next = links_[l].peer(cur);
            if (dist[next] == ~0u) {
                dist[next] = dist[cur] + 1;
                if (next == dst)
                    return dist[next];
                queue.push_back(next);
            }
        }
    }
    return ~0u;
}

unsigned
Topology::diameter() const
{
    unsigned worst = 0;
    for (TspId src = 0; src < numTsps_; ++src) {
        // One BFS per source.
        std::vector<unsigned> dist(numTsps_, ~0u);
        std::deque<TspId> queue{src};
        dist[src] = 0;
        while (!queue.empty()) {
            const TspId cur = queue.front();
            queue.pop_front();
            for (LinkId l : adj_[cur]) {
                if (!enabled_[l])
                    continue;
                const TspId next = links_[l].peer(cur);
                if (dist[next] == ~0u) {
                    dist[next] = dist[cur] + 1;
                    queue.push_back(next);
                }
            }
        }
        for (unsigned d : dist)
            if (d != ~0u)
                worst = std::max(worst, d);
    }
    return worst;
}

Tick
Topology::latencyDiameterPs(unsigned sample_sources) const
{
    TSM_ASSERT(sample_sources >= 1, "need at least one source");
    Tick worst = 0;
    const unsigned stride =
        std::max(1u, numTsps() / std::min(sample_sources, numTsps()));
    for (TspId src = 0; src < numTsps(); src += stride) {
        // Dijkstra with per-hop latencies.
        std::vector<Tick> dist(numTsps(), kTickInvalid);
        using Entry = std::pair<Tick, TspId>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
            heap;
        dist[src] = 0;
        heap.emplace(0, src);
        while (!heap.empty()) {
            const auto [d, at] = heap.top();
            heap.pop();
            if (d != dist[at])
                continue;
            for (LinkId l : adj_[at]) {
                if (!enabled_[l])
                    continue;
                const TspId next = links_[l].peer(at);
                const Tick nd = d + hopLatencyPs(links_[l].cls);
                if (nd < dist[next]) {
                    dist[next] = nd;
                    heap.emplace(nd, next);
                }
            }
        }
        for (Tick d : dist)
            if (d != kTickInvalid)
                worst = std::max(worst, d);
    }
    return worst;
}

bool
Topology::connected() const
{
    std::vector<bool> seen(numTsps_, false);
    std::deque<TspId> queue{0};
    seen[0] = true;
    unsigned count = 1;
    while (!queue.empty()) {
        const TspId cur = queue.front();
        queue.pop_front();
        for (LinkId l : adj_[cur]) {
            if (!enabled_[l])
                continue;
            const TspId next = links_[l].peer(cur);
            if (!seen[next]) {
                seen[next] = true;
                ++count;
                queue.push_back(next);
            }
        }
    }
    return count == numTsps_;
}

std::vector<Topology::Path>
Topology::minimalPaths(TspId src, TspId dst, unsigned limit) const
{
    const unsigned d = distance(src, dst);
    if (d == ~0u)
        return {};
    return paths(src, dst, 0, limit);
}

namespace {

/**
 * Depth-first enumeration of simple paths of at most `maxLen` hops,
 * pruned by each TSP's hop distance to the destination (~0u: too far
 * or unreachable). Stops once `limit` paths are found.
 */
struct PathSearch
{
    const Topology &topo;
    TspId dst;
    unsigned maxLen;
    unsigned limit;
    const std::vector<unsigned> &toDst;
    std::vector<char> visited;
    Topology::Path current;
    std::vector<Topology::Path> result;

    void
    from(TspId at)
    {
        if (result.size() >= limit)
            return;
        if (at == dst) {
            result.push_back(current);
            return;
        }
        if (current.size() >= maxLen)
            return;
        for (LinkId l : topo.linksAt(at)) {
            if (!topo.linkEnabled(l))
                continue;
            const TspId next = topo.links()[l].peer(at);
            if (visited[next])
                continue;
            // Prune paths that cannot reach dst within budget.
            if (toDst[next] == ~0u ||
                current.size() + 1 + toDst[next] > maxLen)
                continue;
            visited[next] = true;
            current.push_back(l);
            from(next);
            current.pop_back();
            visited[next] = false;
            if (result.size() >= limit)
                return;
        }
    }
};

} // namespace

std::vector<Topology::Path>
Topology::paths(TspId src, TspId dst, unsigned max_extra_hops,
                unsigned limit) const
{
    if (src == dst)
        return {};

    // Hop distance to dst, one BFS level at a time. Once src turns up
    // at depth d, a path of at most d + max_extra_hops hops can only
    // pass through TSPs within d + max_extra_hops - 1 hops of dst (its
    // first hop leaves src), so labelling stops at that depth. TSPs
    // left at ~0u are pruned by the search exactly as their true
    // distance would prune them.
    std::vector<unsigned> to_dst(numTsps_, ~0u);
    to_dst[dst] = 0;
    std::vector<TspId> frontier{dst}, next;
    unsigned last = ~0u; // deepest level to label, once d is known
    for (unsigned depth = 0; !frontier.empty() && depth < last; ++depth) {
        for (TspId cur : frontier) {
            for (LinkId l : adj_[cur]) {
                if (!enabled_[l])
                    continue;
                const TspId peer = links_[l].peer(cur);
                if (to_dst[peer] == ~0u) {
                    to_dst[peer] = depth + 1;
                    next.push_back(peer);
                }
            }
        }
        if (last == ~0u && to_dst[src] != ~0u)
            last = to_dst[src] + max_extra_hops - 1;
        frontier.swap(next);
        next.clear();
    }
    if (to_dst[src] == ~0u)
        return {};

    PathSearch search{*this, dst, to_dst[src] + max_extra_hops, limit,
                      to_dst, std::vector<char>(numTsps_, false), {}, {}};
    search.visited[src] = true;
    search.from(src);

    // Shortest paths first, then lexicographic by link ids — a stable,
    // deterministic order the scheduler can rely on.
    std::sort(search.result.begin(), search.result.end(),
              [](const Path &x, const Path &y) {
                  if (x.size() != y.size())
                      return x.size() < y.size();
                  return x < y;
              });
    return std::move(search.result);
}

Tick
Topology::pathLatencyPs(const Path &path) const
{
    Tick total = 0;
    for (LinkId l : path)
        total += hopLatencyPs(links_[l].cls);
    return total;
}

std::vector<LinkId>
Topology::disableNode(unsigned node)
{
    std::vector<LinkId> disabled;
    const TspId lo = node * kTspsPerNode;
    const TspId hi = lo + kTspsPerNode;
    for (LinkId l = 0; l < links_.size(); ++l) {
        const bool touches = (links_[l].a >= lo && links_[l].a < hi) ||
                             (links_[l].b >= lo && links_[l].b < hi);
        if (touches && enabled_[l]) {
            enabled_[l] = false;
            disabled.push_back(l);
        }
    }
    return disabled;
}

std::string
Topology::describe() const
{
    if (numRacks_ > 1) {
        return format(
            "two-level dragonfly: {} racks x 9 nodes x 8 TSPs = {} TSPs, "
            "{} links",
            numRacks_, numTsps_, links_.size());
    }
    if (numNodes_ > 1) {
        return format(
            "single-level dragonfly: {} nodes x 8 TSPs = {} TSPs, {} links",
            numNodes_, numTsps_, links_.size());
    }
    return format("single node: {} TSPs, {} links", numTsps_,
                       links_.size());
}

unsigned
Topology::bisectionLinks() const
{
    // Canonical bisection: lower half of TSP ids vs upper half. For the
    // symmetric topologies built here this is a (near-)minimal cut.
    const TspId half = numTsps_ / 2;
    unsigned crossing = 0;
    for (LinkId l = 0; l < links_.size(); ++l) {
        if (!enabled_[l])
            continue;
        const bool a_low = links_[l].a < half;
        const bool b_low = links_[l].b < half;
        if (a_low != b_low)
            ++crossing;
    }
    return crossing;
}

} // namespace tsm
