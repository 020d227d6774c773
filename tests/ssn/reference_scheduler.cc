#include "reference_scheduler.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <map>
#include <set>

#include "common/format.hh"
#include "common/log.hh"

namespace tsm::reference {

unsigned
distance(const Topology &topo, TspId src, TspId dst)
{
    if (src == dst)
        return 0;
    std::vector<unsigned> dist(topo.numTsps(), ~0u);
    std::deque<TspId> queue{src};
    dist[src] = 0;
    while (!queue.empty()) {
        const TspId cur = queue.front();
        queue.pop_front();
        for (LinkId l : topo.linksAt(cur)) {
            if (!topo.linkEnabled(l))
                continue;
            const TspId next = topo.links()[l].peer(cur);
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

std::vector<Topology::Path>
paths(const Topology &topo, TspId src, TspId dst,
      unsigned max_extra_hops, unsigned limit)
{
    std::vector<Topology::Path> result;
    const unsigned d = distance(topo, src, dst);
    if (d == ~0u || src == dst)
        return result;
    const unsigned max_len = d + max_extra_hops;

    // Distance-to-destination pruning table (BFS from dst).
    std::vector<unsigned> to_dst(topo.numTsps(), ~0u);
    {
        std::deque<TspId> queue{dst};
        to_dst[dst] = 0;
        while (!queue.empty()) {
            const TspId cur = queue.front();
            queue.pop_front();
            for (LinkId l : topo.linksAt(cur)) {
                if (!topo.linkEnabled(l))
                    continue;
                const TspId next = topo.links()[l].peer(cur);
                if (to_dst[next] == ~0u) {
                    to_dst[next] = to_dst[cur] + 1;
                    queue.push_back(next);
                }
            }
        }
    }

    Topology::Path current;
    std::vector<bool> visited(topo.numTsps(), false);
    visited[src] = true;

    std::function<void(TspId)> dfs = [&](TspId at) {
        if (result.size() >= limit)
            return;
        if (at == dst) {
            result.push_back(current);
            return;
        }
        if (current.size() >= max_len)
            return;
        for (LinkId l : topo.linksAt(at)) {
            if (!topo.linkEnabled(l))
                continue;
            const TspId next = topo.links()[l].peer(at);
            if (visited[next])
                continue;
            // Prune paths that cannot reach dst within budget.
            if (to_dst[next] == ~0u ||
                current.size() + 1 + to_dst[next] > max_len)
                continue;
            visited[next] = true;
            current.push_back(l);
            dfs(next);
            current.pop_back();
            visited[next] = false;
            if (result.size() >= limit)
                return;
        }
    };
    dfs(src);

    // Shortest paths first, then lexicographic by link ids — a stable,
    // deterministic order the scheduler can rely on.
    std::sort(result.begin(), result.end(),
              [](const Topology::Path &x, const Topology::Path &y) {
                  if (x.size() != y.size())
                      return x.size() < y.size();
                  return x < y;
              });
    return result;
}

namespace {

/**
 * Per-link-direction occupancy of serialization windows, in scheduler
 * cycles. Each reservation occupies [start, start + window).
 */
class ReservationLedger
{
  public:
    /**
     * @param num_links Number of links in the topology (two
     *        directions tracked per link).
     * @param window_cycles Serialization window per vector (24).
     */
    explicit ReservationLedger(std::size_t num_links,
                               Cycle window_cycles = kScheduleWindowCycles);

    /**
     * Earliest cycle >= `earliest` at which direction (link, from_a)
     * has a free serialization window.
     */
    Cycle earliestFree(LinkId link, bool from_a, Cycle earliest) const;

    /**
     * Reserve [start, start+window) on the direction for `owner`.
     * Panics on overlap — the scheduler must have consulted
     * earliestFree. The owner flow is what contention attribution
     * reports when a later vector is pushed past this window.
     */
    void reserve(LinkId link, bool from_a, Cycle start,
                 FlowId owner = kFlowInvalid);

    /** True if [start, start+window) is free on the direction. */
    bool free(LinkId link, bool from_a, Cycle start) const;

    /** Total reserved windows across all directions. */
    std::uint64_t totalReservations() const { return total_; }

    /** Reserved windows on one direction. */
    std::size_t
    reservationsOn(LinkId link, bool from_a) const
    {
        return dirs_[index(link, from_a)].size();
    }

    /**
     * The last cycle at which any reservation ends (makespan of the
     * communication schedule), or 0 if empty.
     */
    Cycle horizon() const { return horizon_; }

    Cycle window() const { return window_; }

    /** One reserved serialization window and the flow holding it. */
    struct Occupant
    {
        Cycle start;
        FlowId owner;
    };

    /**
     * Reserved windows on (link, from_a) overlapping [from, to), in
     * start order. This is the static-blame query: every cycle a
     * vector was pushed past `from` is covered by these occupants
     * (plus scheduler-issue slots).
     */
    std::vector<Occupant> occupantsInRange(LinkId link, bool from_a,
                                           Cycle from, Cycle to) const;

  private:
    std::size_t
    index(LinkId link, bool from_a) const
    {
        return std::size_t(link) * 2 + (from_a ? 0 : 1);
    }

    /** start -> owning flow, per direction. */
    std::vector<std::map<Cycle, FlowId>> dirs_;
    Cycle window_;
    std::uint64_t total_ = 0;
    Cycle horizon_ = 0;
};

ReservationLedger::ReservationLedger(std::size_t num_links,
                                     Cycle window_cycles)
    : dirs_(num_links * 2), window_(window_cycles)
{
    TSM_ASSERT(window_cycles > 0, "zero-width serialization window");
}

Cycle
ReservationLedger::earliestFree(LinkId link, bool from_a,
                                Cycle earliest) const
{
    const auto &dir = dirs_[index(link, from_a)];
    Cycle cand = earliest;
    // A window starting at `cand` conflicts with any reservation r
    // with r.start < cand + window and r.start + window > cand.
    auto it = dir.lower_bound(cand >= window_ ? cand - window_ + 1 : 0);
    while (it != dir.end() && it->first < cand + window_) {
        // Overlap: jump past this reservation and re-check.
        cand = it->first + window_;
        ++it;
    }
    return cand;
}

bool
ReservationLedger::free(LinkId link, bool from_a, Cycle start) const
{
    return earliestFree(link, from_a, start) == start;
}

void
ReservationLedger::reserve(LinkId link, bool from_a, Cycle start,
                           FlowId owner)
{
    auto &dir = dirs_[index(link, from_a)];
    TSM_ASSERT(free(link, from_a, start),
               "link-cycle conflict: double-booked serialization window");
    dir.emplace(start, owner);
    ++total_;
    if (start + window_ > horizon_)
        horizon_ = start + window_;
}

std::vector<ReservationLedger::Occupant>
ReservationLedger::occupantsInRange(LinkId link, bool from_a,
                                    Cycle from, Cycle to) const
{
    std::vector<Occupant> out;
    const auto &dir = dirs_[index(link, from_a)];
    auto it = dir.lower_bound(from >= window_ ? from - window_ + 1 : 0);
    for (; it != dir.end() && it->first < to; ++it)
        out.push_back({it->first, it->second});
    return out;
}

/**
 * Sparse per-chip instruction-issue slots: the model's C2C dispatch
 * issues at most one send instruction per cycle, so concurrent sends
 * from one chip must occupy distinct cycles (a single-sequence
 * simplification of the TSP's per-slice ICUs; see DESIGN.md).
 */
class IssueSlots
{
  public:
    explicit IssueSlots(unsigned num_chips) : used_(num_chips) {}

    bool
    free(TspId chip, Cycle c) const
    {
        return !used_[chip].contains(c);
    }

    Cycle
    earliestFree(TspId chip, Cycle c) const
    {
        while (!free(chip, c))
            ++c;
        return c;
    }

    void
    reserve(TspId chip, Cycle c)
    {
        TSM_ASSERT(used_[chip].insert(c).second,
                   "chip issue slot double-booked");
    }

  private:
    std::vector<std::set<Cycle>> used_;
};

/** Working state of one schedule() invocation. */
class ScheduleBuilder
{
  public:
    ScheduleBuilder(const Topology &topo, const SsnConfig &config)
        : topo_(topo), config_(config),
          ledger_(topo.links().size()), slots_(topo.numTsps())
    {}

    void
    add(const TensorTransfer &t, NetworkSchedule &out, ScheduleBlame &blame)
    {
        TSM_ASSERT(t.src != t.dst, "transfer to self");
        TSM_ASSERT(t.vectors > 0, "empty transfer");

        auto raw = paths(topo_, t.src, t.dst, config_.maxExtraHops,
                         config_.maxPaths * 4);
        TSM_ASSERT(!raw.empty(), "no path between transfer endpoints");
        auto choices = toPathChoices(topo_, raw);
        if (choices.size() > config_.maxPaths)
            choices.resize(config_.maxPaths);
        if (!config_.loadBalance)
            choices.resize(1);

        FlowSummary &summary = out.flows[t.flow];
        summary.flow = t.flow;
        summary.vectors = t.vectors;
        summary.firstDeparture = ~Cycle(0);
        summary.earliest = t.earliest;

        std::vector<Cycle> next_inject(choices.size(), t.earliest);
        std::set<std::size_t> paths_used;

        for (std::uint32_t v = 0; v < t.vectors; ++v) {
            Candidate best;
            std::size_t best_path = 0;
            for (std::size_t p = 0; p < choices.size(); ++p) {
                Candidate cand =
                    evaluate(t.src, choices[p].path, next_inject[p]);
                if (cand.arrival < best.arrival) {
                    best = std::move(cand);
                    best_path = p;
                }
            }
            TSM_ASSERT(best.arrival != ~Cycle(0), "no feasible path");

            attributeDelay(t.flow, best, next_inject[best_path], blame);

            for (const auto &hop : best.hops) {
                const Link &link = topo_.links()[hop.link];
                ledger_.reserve(hop.link, link.a == hop.from, hop.depart,
                                t.flow);
                slots_.reserve(hop.from, hop.depart);
            }
            next_inject[best_path] =
                best.hops.front().depart + ledger_.window();
            paths_used.insert(best_path);

            ScheduledVector sv;
            sv.flow = t.flow;
            sv.seq = v;
            sv.hops = std::move(best.hops);
            summary.firstDeparture =
                std::min(summary.firstDeparture, sv.departure());
            summary.lastArrival =
                std::max(summary.lastArrival, sv.arrival());
            out.makespan = std::max(out.makespan, sv.arrival());
            out.vectors.push_back(std::move(sv));
        }
        summary.pathsUsed = unsigned(paths_used.size());
    }

  private:
    struct Candidate
    {
        std::vector<ScheduledHop> hops;
        Cycle arrival = ~Cycle(0);
    };

    /**
     * Charge every cycle `cand` was pushed past its per-hop ready
     * times to the flows whose reserved windows stood in the way.
     * Must run before `cand`'s own windows are reserved. Occupant
     * windows on a direction are disjoint, so their clipped overlaps
     * with [ready, depart) partition the link-induced share exactly;
     * the uncovered remainder is the per-chip issue-slot limit.
     */
    void
    attributeDelay(FlowId flow, const Candidate &cand, Cycle ready0,
                   ScheduleBlame &blame)
    {
        Cycle ready = ready0;
        for (std::size_t h = 0; h < cand.hops.size(); ++h) {
            const ScheduledHop &hop = cand.hops[h];
            if (h > 0)
                ready = cand.hops[h - 1].arrive + forwardCycles();
            if (hop.depart > ready) {
                const Cycle delay = hop.depart - ready;
                const Link &link = topo_.links()[hop.link];
                Cycle covered = 0;
                for (const auto &occ : ledger_.occupantsInRange(
                         hop.link, link.a == hop.from, ready,
                         hop.depart)) {
                    const Cycle lo = std::max(ready, occ.start);
                    const Cycle hi = std::min(
                        hop.depart, occ.start + ledger_.window());
                    if (hi <= lo)
                        continue;
                    const Cycle share = hi - lo;
                    covered += share;
                    blame.flowPairCycles[flow][occ.owner] += share;
                    blame.linkFlowCycles[hop.link][occ.owner] += share;
                }
                blame.issueDelayCycles += delay - covered;
                blame.flowDelayCycles[flow] += delay;
                blame.totalDelayCycles += delay;
            }
        }
    }

    /** Chain one vector down `path`, starting no earlier than `ready0`. */
    Candidate
    evaluate(TspId src, const Topology::Path &path, Cycle ready0) const
    {
        Candidate cand;
        TspId at = src;
        Cycle ready = ready0;
        for (std::size_t h = 0; h < path.size(); ++h) {
            const LinkId l = path[h];
            const Link &link = topo_.links()[l];
            const bool from_a = link.a == at;
            // Departure requires the link serialization window and the
            // chip's issue slot to be simultaneously free.
            Cycle d = ready;
            for (;;) {
                d = ledger_.earliestFree(l, from_a, d);
                const Cycle d2 = slots_.earliestFree(at, d);
                if (d2 == d)
                    break;
                d = d2;
            }
            ScheduledHop hop;
            hop.link = l;
            hop.from = at;
            hop.depart = d;
            hop.arrive = d + flightCycles(link.cls);
            cand.hops.push_back(hop);
            at = link.peer(at);
            ready = hop.arrive + forwardCycles();
        }
        cand.arrival = cand.hops.back().arrive;
        return cand;
    }

    const Topology &topo_;
    const SsnConfig &config_;
    ReservationLedger ledger_;
    IssueSlots slots_;
};

} // namespace

NetworkSchedule
schedule(const Topology &topo, const SsnConfig &config,
         const std::vector<TensorTransfer> &transfers, ScheduleBlame *blame)
{
    TSM_ASSERT(config.maxPaths >= 1, "need at least one path");
    NetworkSchedule out;
    ScheduleBlame charged;
    ScheduleBuilder builder(topo, config);
    for (const auto &t : transfers) {
        TSM_ASSERT(t.flow != kFlowInvalid && t.flow != 0,
                   "transfers need flow ids >= 1");
        builder.add(t, out, charged);
    }
    if (blame)
        *blame = std::move(charged);
    return out;
}

ValidationReport
validateSchedule(const NetworkSchedule &sched, const Topology &topo)
{
    ValidationReport report;
    const Cycle window = kScheduleWindowCycles;
    // Replay every serialization window into a fresh occupancy map.
    std::map<std::pair<std::uint64_t, Cycle>, FlowId> occupied;

    auto fail = [&report](std::string why) {
        if (report.ok) {
            report.ok = false;
            report.firstViolation = std::move(why);
        }
    };

    for (const auto &sv : sched.vectors) {
        if (sv.hops.empty()) {
            fail(format("flow {} seq {}: empty itinerary", sv.flow, sv.seq));
            continue;
        }
        TspId at = sv.hops.front().from;
        Cycle prev_arrive = 0;
        for (std::size_t h = 0; h < sv.hops.size(); ++h) {
            const auto &hop = sv.hops[h];
            const Link &link = topo.links()[hop.link];
            // (3) endpoints chain.
            if (hop.from != at) {
                fail(format("flow {} seq {}: hop {} departs from tsp{}, "
                            "expected tsp{}",
                            sv.flow, sv.seq, h, hop.from, at));
                break;
            }
            if (link.a != at && link.b != at) {
                fail(format("flow {} seq {}: hop {} uses a link not at "
                            "tsp{}",
                            sv.flow, sv.seq, h, at));
                break;
            }
            // (2) causality with the forward-pipeline gap.
            if (h > 0 && hop.depart < prev_arrive + forwardCycles()) {
                fail(format("flow {} seq {}: hop {} departs {} cycles "
                            "after landing (< forward pipeline {})",
                            sv.flow, sv.seq, h, hop.depart - prev_arrive,
                            forwardCycles()));
            }
            if (hop.arrive != hop.depart + flightCycles(link.cls)) {
                fail(format("flow {} seq {}: hop {} arrival inconsistent",
                            sv.flow, sv.seq, h));
            }
            // (1) disjoint serialization windows: record each window's
            // start; any other start within +-(window-1) conflicts.
            const std::uint64_t dir =
                std::uint64_t(hop.link) * 2 + (link.a == at ? 0 : 1);
            const auto key = std::pair(dir, hop.depart);
            for (Cycle probe = hop.depart >= window - 1
                                   ? hop.depart - (window - 1)
                                   : 0;
                 probe < hop.depart + window; ++probe) {
                auto it = occupied.find(std::pair(dir, probe));
                if (it != occupied.end()) {
                    fail(format("flow {} seq {}: serialization window at "
                                "cycle {} on link {} overlaps flow {}",
                                sv.flow, sv.seq, hop.depart, hop.link,
                                it->second));
                    break;
                }
            }
            occupied.emplace(key, sv.flow);
            ++report.windowsChecked;

            at = link.peer(at);
            prev_arrive = hop.arrive;
        }
    }
    return report;
}

bool
tryBuildPrograms(const NetworkSchedule &sched, const Topology &topo,
                 const std::unordered_map<FlowId, LocalAddr> &dst_base,
                 const std::unordered_map<FlowId, LocalAddr> &src_base,
                 ProgramSet &out, std::string *error)
{
    out = ProgramSet{};
    out.byChip.resize(topo.numTsps());
    auto capacityFail = [error](TspId chip, const std::string &what) {
        if (error)
            *error = "tsp" + std::to_string(chip) + ": " + what;
        return false;
    };

    // Gather per-chip instruction events, then sort by issue cycle.
    struct Event
    {
        Cycle cycle;
        bool fixed; // sends keep their exact cycle; recvs may slide
        Instr instr;
    };
    std::vector<std::vector<Event>> events(topo.numTsps());

    // Per-chip stream registers: freeAt[s] = first cycle the register
    // may be overwritten.
    std::vector<std::array<Cycle, kNumStreams>> stream_free(
        topo.numTsps());
    for (auto &sf : stream_free)
        sf.fill(0);

    // Stream 0 is reserved for the caller-preloaded payload
    // convention; the allocator hands out 1..63.
    auto try_alloc_stream = [&](TspId chip, Cycle from,
                                Cycle until) -> int {
        for (unsigned s = 1; s < kNumStreams; ++s) {
            if (stream_free[chip][s] <= from) {
                stream_free[chip][s] = until;
                return int(s);
            }
        }
        return -1;
    };
    const std::string kOverflow =
        "more than " + std::to_string(kNumStreams) +
        " vectors in flight through stream registers";

    // Cut-through spill buffer: when a forwarded vector must be held
    // longer than the stream registers can cover, it is parked in
    // local SRAM — "we use the local SRAM storage on each TSP to
    // provide intermediate buffering" (paper §2.3). The spill region
    // grows upward from the top of memory, cycling within a window.
    constexpr std::uint32_t kSpillWords = 16384;
    constexpr std::uint32_t kSpillBase = LocalAddr::kWords - kSpillWords;
    std::vector<std::uint32_t> spill_cursor(topo.numTsps(), 0);
    auto alloc_spill = [&](TspId chip) {
        const std::uint32_t word =
            kSpillBase + (spill_cursor[chip]++ % kSpillWords);
        return LocalAddr::unflatten(word);
    };

    for (const auto &sv : sched.vectors) {
        for (std::size_t h = 0; h < sv.hops.size(); ++h) {
            const auto &hop = sv.hops[h];
            const Link &link = topo.links()[hop.link];
            const TspId to = link.peer(hop.from);
            const unsigned tx_port = link.portAt(hop.from);
            const unsigned rx_port = link.portAt(to);
            const bool last_hop = h + 1 == sv.hops.size();

            // Receive side: at intermediate hops the vector is parked
            // in a stream register (or spilled to SRAM under
            // pressure) until its onward send; at the destination it
            // is received and (optionally) written to memory.
            const Cycle rx_cycle = hop.arrive + kRxMarginCycles;
            const Cycle hold_until =
                last_hop ? rx_cycle + 2 : sv.hops[h + 1].depart + 1;
            // A vector that must wait long for its onward link (the
            // link is congested with other scheduled traffic) parks
            // in SRAM rather than monopolizing a stream register.
            constexpr Cycle kMaxStreamHold = 400;
            int stream = -1;
            if (last_hop || hold_until - rx_cycle <= kMaxStreamHold)
                stream = try_alloc_stream(to, rx_cycle, hold_until);

            if (stream < 0) {
                if (last_hop)
                    return capacityFail(
                        to, "destination receive could not get a "
                            "stream register — " + kOverflow);
                // Spill path: Recv -> Write(SRAM) ... Read -> Send,
                // with two short stream holds instead of a long one.
                const Cycle send_at = sv.hops[h + 1].depart;
                const int s_in =
                    try_alloc_stream(to, rx_cycle, rx_cycle + 2);
                const int s_out =
                    try_alloc_stream(to, send_at - 4, send_at + 1);
                if (s_in < 0 || s_out < 0)
                    return capacityFail(to, kOverflow);
                const LocalAddr scratch = alloc_spill(to);

                Instr rx;
                rx.op = Op::Recv;
                rx.port = std::uint8_t(rx_port);
                rx.dst = std::uint8_t(s_in);
                rx.flow = sv.flow;
                rx.seq = sv.seq;
                rx.hop = std::uint8_t(h);
                rx.lastHop = false;
                rx.issueAt = rx_cycle;
                events[to].push_back({rx_cycle, false, rx});

                Instr wr;
                wr.op = Op::Write;
                wr.srcA = std::uint8_t(s_in);
                wr.addr = scratch;
                wr.issueAt = rx_cycle + 1;
                events[to].push_back({rx_cycle + 1, false, wr});

                Instr rd;
                rd.op = Op::Read;
                rd.dst = std::uint8_t(s_out);
                rd.addr = scratch;
                rd.issueAt = send_at - 4;
                events[to].push_back({send_at - 4, false, rd});

                Instr fwd;
                fwd.op = Op::Send;
                fwd.port = std::uint8_t(
                    topo.links()[sv.hops[h + 1].link].portAt(to));
                fwd.srcA = std::uint8_t(s_out);
                fwd.flow = sv.flow;
                fwd.seq = sv.seq;
                fwd.hop = std::uint8_t(h + 1);
                fwd.issueAt = send_at;
                events[to].push_back({send_at, true, fwd});
            } else {
                Instr rx;
                rx.op = Op::Recv;
                rx.port = std::uint8_t(rx_port);
                rx.dst = std::uint8_t(stream);
                rx.flow = sv.flow;
                rx.seq = sv.seq;
                rx.hop = std::uint8_t(h);
                rx.lastHop = last_hop;
                rx.issueAt = rx_cycle;
                events[to].push_back({rx_cycle, false, rx});

                if (!last_hop) {
                    // Onward send from the intermediate hop.
                    Instr fwd;
                    fwd.op = Op::Send;
                    fwd.port = std::uint8_t(
                        topo.links()[sv.hops[h + 1].link].portAt(to));
                    fwd.srcA = std::uint8_t(stream);
                    fwd.flow = sv.flow;
                    fwd.seq = sv.seq;
                    fwd.hop = std::uint8_t(h + 1);
                    fwd.issueAt = sv.hops[h + 1].depart;
                    events[to].push_back(
                        {sv.hops[h + 1].depart, true, fwd});
                }
            }

            if (last_hop) {
                auto it = dst_base.find(sv.flow);
                if (it != dst_base.end()) {
                    Instr wr;
                    wr.op = Op::Write;
                    wr.srcA = std::uint8_t(stream);
                    wr.addr = LocalAddr::unflatten(it->second.flatten() +
                                                   sv.seq);
                    wr.issueAt = rx_cycle + 1;
                    events[to].push_back({rx_cycle + 1, false, wr});
                }
            }

            if (h == 0) {
                // Source send. With a src_base the vector is read
                // from memory into a briefly-held stream register
                // just before departure; otherwise stream register 0
                // carries the payload by convention.
                unsigned tx_stream = 0;
                if (auto it = src_base.find(sv.flow);
                    it != src_base.end()) {
                    const Cycle read_at =
                        hop.depart >= 12 ? hop.depart - 12 : 0;
                    const int s = try_alloc_stream(hop.from, read_at,
                                                   hop.depart + 1);
                    if (s < 0)
                        return capacityFail(hop.from, kOverflow);
                    tx_stream = unsigned(s);
                    Instr rd;
                    rd.op = Op::Read;
                    rd.dst = std::uint8_t(tx_stream);
                    rd.addr = LocalAddr::unflatten(it->second.flatten() +
                                                   sv.seq);
                    rd.issueAt = read_at;
                    events[hop.from].push_back({read_at, false, rd});
                }
                Instr tx;
                tx.op = Op::Send;
                tx.port = std::uint8_t(tx_port);
                tx.srcA = std::uint8_t(tx_stream);
                tx.flow = sv.flow;
                tx.seq = sv.seq;
                tx.hop = 0;
                tx.issueAt = hop.depart;
                events[hop.from].push_back({hop.depart, true, tx});
            }
        }
    }

    for (TspId chip = 0; chip < topo.numTsps(); ++chip) {
        auto &ev = events[chip];
        // Sends keep their exact cycles (their link windows are
        // reserved and guaranteed distinct by IssueSlots); receives
        // and writes slide onto the nearest later cycle that is free
        // of sends and of each other.
        std::set<Cycle> send_cycles;
        for (const auto &e : ev)
            if (e.fixed)
                TSM_ASSERT(send_cycles.insert(e.cycle).second,
                           "two sends scheduled on one chip at one cycle");
        std::stable_sort(ev.begin(), ev.end(),
                         [](const Event &a, const Event &b) {
                             return a.cycle < b.cycle;
                         });
        Cycle last_flexible = 0;
        bool any_flexible = false;
        for (auto &e : ev) {
            Cycle c = e.cycle;
            if (!e.fixed) {
                if (any_flexible && c <= last_flexible)
                    c = last_flexible + 1;
                while (send_cycles.contains(c))
                    ++c;
                if (c - e.cycle >= 64)
                    return capacityFail(
                        chip, "receive slid too far from its arrival; "
                              "issue pressure exceeds the "
                              "forward-pipeline margin");
                last_flexible = c;
                any_flexible = true;
            }
            e.instr.issueAt = c;
        }
        // Merge into one strictly increasing instruction sequence.
        std::stable_sort(ev.begin(), ev.end(),
                         [](const Event &a, const Event &b) {
                             return a.instr.issueAt < b.instr.issueAt;
                         });
        Cycle prev = 0;
        bool first = true;
        for (const auto &e : ev) {
            TSM_ASSERT(first || e.instr.issueAt > prev,
                       "instruction issue cycles not strictly increasing");
            prev = e.instr.issueAt;
            first = false;
            out.byChip[chip].instrs.push_back(e.instr);
        }

        // Dataflow sanity: every Send from a managed stream register
        // must consume a value written (Recv/Read) after that
        // stream's previous Send — catches any receive/read that slid
        // past its consumer.
        std::array<Cycle, kNumStreams> last_write;
        std::array<Cycle, kNumStreams> last_consume;
        last_write.fill(0);
        last_consume.fill(0);
        bool wrote0 = false;
        for (const auto &i : out.byChip[chip].instrs) {
            if (i.op == Op::Recv || i.op == Op::Read) {
                last_write[i.dst] = i.issueAt;
                wrote0 |= i.dst == 0;
            } else if (i.op == Op::Send) {
                if (i.srcA != 0 || wrote0) {
                    if (last_write[i.srcA] <= last_consume[i.srcA] ||
                        last_write[i.srcA] >= i.issueAt)
                        return capacityFail(
                            chip,
                            "send at cycle " +
                                std::to_string(i.issueAt) +
                                " consumes stream " +
                                std::to_string(unsigned(i.srcA)) +
                                " with no fresh value — an upstream "
                                "read/receive slid past it");
                }
                last_consume[i.srcA] = i.issueAt;
            }
        }
    }
    return true;
}

} // namespace tsm::reference
