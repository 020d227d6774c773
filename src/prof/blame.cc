#include "prof/blame.hh"

#include <algorithm>
#include <set>
#include <string_view>

#include "common/format.hh"
#include "prof/ssn_analysis.hh"
#include "scenario/scenario.hh"
#include "trace/span.hh"

namespace tsm {

namespace {

/** Transfers serialized into the document (the accounts count all). */
constexpr std::size_t kMaxBlameTransfers = 512;

/** Flow pairs / chains serialized, largest first. */
constexpr std::size_t kMaxBlamePairs = 64;
constexpr std::size_t kMaxBlameChains = 8;
constexpr std::size_t kMaxChainDepth = 8;
constexpr std::size_t kMaxBlockedBy = 4;

/** A flow id as an object key ("7"). */
std::string
flowKey(std::uint64_t flow)
{
    char buf[kMaxDecimal];
    return std::string(buf, appendDecimal(buf, flow));
}

Json
sharesJson(const WaitShares &shares)
{
    Json flows = Json::object();
    for (const auto &[flow, ps] : shares.flowPs)
        flows.set(flowKey(flow), std::uint64_t(ps));
    Json out = Json::object();
    out.set("flows", std::move(flows));
    out.set("local_ps", std::uint64_t(shares.localPs));
    out.set("margin_ps", std::uint64_t(shares.marginPs));
    return out;
}

/** Shares of one document entry summed back up (for exactness). */
std::int64_t
sharesSum(const Json &shares)
{
    std::int64_t total =
        shares["local_ps"].integer() + shares["margin_ps"].integer();
    for (const auto &[flow, ps] : shares["flows"].members())
        total += ps.integer();
    return total;
}

} // namespace

ScheduleBlame
scheduleBlame(const NetworkSchedule &sched, const Topology &topo)
{
    ScheduleBlame blame;
    const ScheduleGraph graph(sched, topo);
    const Cycle window = kScheduleWindowCycles;

    // The current flow's link sequences so far, each with the cycle
    // its next vector may inject (the scheduler's next_inject). A
    // flow's vectors are contiguous in schedule order.
    struct PathCursor
    {
        std::uint32_t vec; ///< last vector of the flow on this path
        Cycle next;
    };
    std::vector<PathCursor> cursors;
    auto samePath = [](const ScheduledVector &a, const ScheduledVector &b) {
        return std::equal(a.hops.begin(), a.hops.end(), b.hops.begin(),
                          b.hops.end(),
                          [](const ScheduledHop &x, const ScheduledHop &y) {
                              return x.link == y.link;
                          });
    };

    std::size_t node = 0;
    for (std::uint32_t v = 0; v < sched.vectors.size(); ++v) {
        const ScheduledVector &sv = sched.vectors[v];
        if (v == 0 || sched.vectors[v - 1].flow != sv.flow)
            cursors.clear();
        auto cursor = std::find_if(
            cursors.begin(), cursors.end(), [&](const PathCursor &c) {
                return samePath(sched.vectors[c.vec], sv);
            });
        const PathCursor next{v, sv.hops.front().depart + window};
        Cycle ready = 0;
        if (cursor != cursors.end()) {
            ready = cursor->next;
            *cursor = next;
        } else {
            ready = flowEarliest(sched, sv.flow);
            cursors.push_back(next);
        }

        for (std::size_t h = 0; h < sv.hops.size(); ++h, ++node) {
            const ScheduleGraph::Hop &hop = graph.hops[node];
            if (h > 0)
                ready = sv.hops[h - 1].arrive + forwardCycles();
            if (hop.depart <= ready)
                continue;
            // Windows on a direction are disjoint, so walking back from
            // the hop finds every window overlapping [ready, depart)
            // before the first one that ends by `ready`.
            const Cycle delay = hop.depart - ready;
            Cycle covered = 0;
            for (std::int32_t q = hop.prevDir; q != -1;
                 q = graph.hops[q].prevDir) {
                const ScheduleGraph::Hop &w = graph.hops[q];
                if (w.depart + window <= ready)
                    break;
                if (w.vec >= v)
                    continue; // reserved after this vector was placed
                const Cycle share = std::min(hop.depart, w.depart + window) -
                                    std::max(ready, w.depart);
                const FlowId owner = sched.vectors[w.vec].flow;
                covered += share;
                blame.flowPairCycles[sv.flow][owner] += share;
                blame.linkFlowCycles[hop.link][owner] += share;
            }
            blame.issueDelayCycles += delay - covered;
            blame.flowDelayCycles[sv.flow] += delay;
            blame.totalDelayCycles += delay;
        }
    }
    return blame;
}

void
WaitShares::accumulate(const WaitShares &other)
{
    for (const auto &[flow, ps] : other.flowPs)
        flowPs[flow] += ps;
    for (const auto &[vec, ps] : other.vectorPs)
        vectorPs[vec] += ps;
    localPs += other.localPs;
    marginPs += other.marginPs;
}

void
BlameSink::event(const TraceEvent &ev)
{
    switch (ev.cat) {
      case TraceCat::Chip:
        chipEvent(ev);
        break;
      case TraceCat::Net:
        netEvent(ev);
        break;
      case TraceCat::Ssn:
        ssnEvent(ev);
        break;
      default:
        break;
    }
}

void
BlameSink::chipEvent(const TraceEvent &ev)
{
    const TspId chip = ev.actor;
    auto &timeline = occupancy_[chip];
    // Instructions issue in cycle order per chip, so only the latest
    // interval can still be open; clip it at the new issue point (a
    // modeled duration never outlives the next instruction's claim on
    // the issue slot — the same rule ProfilerSink::charge applies).
    if (!timeline.empty() && timeline.back().end > ev.tick)
        timeline.back().end = ev.tick;
    if (ev.op == TraceOp::Halt)
        return;

    Occupancy occ{ev.tick, ev.tick + ev.dur, kFlowInvalid, 0, false};
    PendingTag &tag = pendingTag_[chip];
    if (tag.valid && tag.tick == ev.tick) {
        occ.flow = tag.flow;
        occ.seq = tag.seq;
        occ.tagged = true;
    }
    tag.valid = false;
    timeline.push_back(occ);
}

void
BlameSink::netEvent(const TraceEvent &ev)
{
    // Mirror the profiler's pairing exactly: data flits queue here
    // until their consuming Recv.
    if (ev.op == TraceOp::Rx && isDataFlow(FlowId(ev.a)))
        inFlight_[{FlowId(ev.a), std::uint32_t(ev.b)}].push_back(
            {ev.tick, LinkId(ev.actor)});
}

void
BlameSink::ssnEvent(const TraceEvent &ev)
{
    const FlowId flow = FlowId(ev.a);
    const std::uint32_t seq = std::uint32_t(ev.b);

    if (ev.op == TraceOp::SpanOpen) {
        TransferBlame &tb = transfers_[ev.span];
        tb.flow = FlowId(ev.a);
        tb.seq = std::uint32_t(ev.b);
        tb.src = ev.actor;
        return;
    }
    if (ev.op == TraceOp::SpanClose) {
        auto it = transfers_.find(ev.span);
        if (it != transfers_.end()) {
            TransferBlame &tb = it->second;
            tb.dst = ev.actor;
            const BlamedVector key{tb.flow, tb.seq};
            if (auto w = lastRecvWaitPs_.find(key);
                w != lastRecvWaitPs_.end())
                tb.waitPs = w->second;
            if (auto s = lastRecv_.find(key); s != lastRecv_.end())
                tb.shares = s->second;
            tb.closed = true;
        }
        return;
    }
    if (ev.op != TraceOp::Send && ev.op != TraceOp::Recv &&
        ev.op != TraceOp::Corrupt)
        return;

    // This Ssn event precedes its instruction's Chip event at the
    // same (actor, tick): remember the flow it serves so the
    // occupancy interval gets tagged.
    if (isDataFlow(flow)) {
        pendingTag_[ev.actor] = {ev.tick, flow, seq, true};
    }
    if (ev.op == TraceOp::Send)
        return;

    // Consuming Recv: pair with the oldest matching arrival and
    // decompose the queueing window against this chip's occupancy.
    auto it = inFlight_.find({flow, seq});
    if (it == inFlight_.end() || it->second.empty())
        return;
    const auto [arrivedAt, link] = it->second.front();
    it->second.erase(it->second.begin());
    if (it->second.empty())
        inFlight_.erase(it);

    const Tick delay = ev.tick >= arrivedAt ? ev.tick - arrivedAt : 0;
    WaitShares shares = decompose(ev.actor, ev.tick - delay, ev.tick);

    LinkBlame &lb = links_[link];
    ++lb.recvs;
    lb.waitPs += delay;
    lb.shares.accumulate(shares);
    for (const auto &[blocker, ps] : shares.flowPs)
        flowPairs_[flow][blocker] += ps;
    grid_.add(link, ev.tick - delay, ev.tick);
    ++recvs_;
    totalWaitPs_ += delay;

    lastRecvWaitPs_[{flow, seq}] = delay;
    lastRecv_[{flow, seq}] = std::move(shares);
}

WaitShares
BlameSink::decompose(TspId chip, Tick from, Tick to) const
{
    WaitShares out;
    if (to <= from)
        return out;
    Tick covered = 0;
    if (auto it = occupancy_.find(chip); it != occupancy_.end()) {
        const auto &timeline = it->second;
        // Intervals are disjoint and ordered, so both starts and ends
        // are non-decreasing: binary-search the first one that may
        // reach into [from, to).
        auto at = std::lower_bound(
            timeline.begin(), timeline.end(), from,
            [](const Occupancy &o, Tick t) { return o.end <= t; });
        for (; at != timeline.end() && at->start < to; ++at) {
            const Tick lo = std::max(from, at->start);
            const Tick hi = std::min(to, at->end);
            if (hi <= lo)
                continue;
            const Tick share = hi - lo;
            covered += share;
            if (at->tagged) {
                out.flowPs[at->flow] += share;
                out.vectorPs[{at->flow, at->seq}] += share;
            } else {
                out.localPs += share;
            }
        }
    }
    out.marginPs = (to - from) - covered;
    return out;
}

void
BlameCollector::onCompiled(const RunIdentity &run,
                            const CompiledScenario *compiled)
{
    Observer::onCompiled(run, compiled);
    if (compiled)
        setSchedule(compiled->schedule, compiled->topo);
}

void
BlameCollector::setSchedule(const NetworkSchedule &sched,
                            const Topology &topo)
{
    const ScheduleBlame blame = scheduleBlame(sched, topo);
    Json doc = Json::object();
    doc.set("total_delay_cycles",
            std::uint64_t(blame.totalDelayCycles));
    doc.set("issue_delay_cycles",
            std::uint64_t(blame.issueDelayCycles));

    struct Pair
    {
        FlowId blocked;
        FlowId blocker;
        Cycle cycles;
    };
    std::vector<Pair> pairs;
    for (const auto &[blocked, row] : blame.flowPairCycles)
        for (const auto &[blocker, cycles] : row)
            pairs.push_back({blocked, blocker, cycles});
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const Pair &a, const Pair &b) {
                         return a.cycles > b.cycles;
                     });
    if (pairs.size() > kMaxBlamePairs)
        pairs.resize(kMaxBlamePairs);
    Json flowPairs = Json::array();
    for (const Pair &p : pairs) {
        Json entry = Json::object();
        entry.set("blocked", std::uint64_t(p.blocked));
        entry.set("blocker", std::uint64_t(p.blocker));
        entry.set("cycles", std::uint64_t(p.cycles));
        flowPairs.push(std::move(entry));
    }
    doc.set("flow_pairs", std::move(flowPairs));

    Json links = Json::array();
    for (const auto &[link, row] : blame.linkFlowCycles) {
        Json flows = Json::object();
        for (const auto &[flow, cycles] : row)
            flows.set(flowKey(flow), std::uint64_t(cycles));
        Json entry = Json::object();
        entry.set("id", std::uint64_t(link));
        entry.set("flows", std::move(flows));
        links.push(std::move(entry));
    }
    doc.set("links", std::move(links));

    Json delays = Json::array();
    for (const auto &[flow, cycles] : blame.flowDelayCycles) {
        Json entry = Json::object();
        entry.set("flow", std::uint64_t(flow));
        entry.set("cycles", std::uint64_t(cycles));
        delays.push(std::move(entry));
    }
    doc.set("flow_delay", std::move(delays));
    schedule_ = std::move(doc);
}

Json
BlameCollector::report() const
{
    Json doc = documentHead(kBlameSchema);
    doc.set("source", "ssn");

    // Totals over every paired recv, all hops.
    WaitShares all;
    for (const auto &[link, lb] : sink_.links())
        all.accumulate(lb.shares);
    Tick blamedPs = 0;
    for (const auto &[flow, ps] : all.flowPs)
        blamedPs += ps;
    Json totals = Json::object();
    totals.set("recvs", sink_.recvs());
    totals.set("wait_ps", std::uint64_t(sink_.totalWaitPs()));
    totals.set("blamed_ps", std::uint64_t(blamedPs));
    totals.set("local_ps", std::uint64_t(all.localPs));
    totals.set("margin_ps", std::uint64_t(all.marginPs));
    doc.set("totals", std::move(totals));

    // Per-transfer breakdowns: shares sum exactly to wait_ps.
    Json transfers = Json::array();
    std::size_t closedCount = 0;
    Tick closedWaitPs = 0;
    for (const auto &[span, tb] : sink_.transfers()) {
        if (!tb.closed)
            continue;
        ++closedCount;
        closedWaitPs += tb.waitPs;
        if (transfers.size() >= kMaxBlameTransfers)
            continue;
        Json t = Json::object();
        t.set("flow", std::uint64_t(tb.flow));
        t.set("seq", std::uint64_t(tb.seq));
        t.set("src", std::uint64_t(tb.src));
        t.set("dst", std::uint64_t(tb.dst));
        t.set("wait_ps", std::uint64_t(tb.waitPs));
        t.set("shares", sharesJson(tb.shares));

        struct Blocker
        {
            BlamedVector vec;
            Tick ps;
        };
        std::vector<Blocker> blockers;
        for (const auto &[vec, ps] : tb.shares.vectorPs)
            blockers.push_back({vec, ps});
        std::stable_sort(blockers.begin(), blockers.end(),
                         [](const Blocker &a, const Blocker &b) {
                             return a.ps > b.ps;
                         });
        if (blockers.size() > kMaxBlockedBy)
            blockers.resize(kMaxBlockedBy);
        Json blockedBy = Json::array();
        for (const Blocker &b : blockers) {
            Json entry = Json::object();
            entry.set("flow", std::uint64_t(b.vec.first));
            entry.set("seq", std::uint64_t(b.vec.second));
            entry.set("ps", std::uint64_t(b.ps));
            blockedBy.push(std::move(entry));
        }
        t.set("blocked_by", std::move(blockedBy));
        transfers.push(std::move(t));
    }
    doc.set("transfers", std::move(transfers));

    Json tsum = Json::object();
    tsum.set("count", std::uint64_t(closedCount));
    tsum.set("wait_ps", std::uint64_t(closedWaitPs));
    doc.set("transfers_summary", std::move(tsum));

    // Runtime flow x flow blame matrix, largest pairs first.
    struct Pair
    {
        FlowId blocked;
        FlowId blocker;
        Tick ps;
    };
    std::vector<Pair> pairs;
    for (const auto &[blocked, row] : sink_.flowPairs())
        for (const auto &[blocker, ps] : row)
            pairs.push_back({blocked, blocker, ps});
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const Pair &a, const Pair &b) {
                         return a.ps > b.ps;
                     });
    if (pairs.size() > kMaxBlamePairs)
        pairs.resize(kMaxBlamePairs);
    Json flowPairs = Json::array();
    for (const Pair &p : pairs) {
        Json entry = Json::object();
        entry.set("blocked", std::uint64_t(p.blocked));
        entry.set("blocker", std::uint64_t(p.blocker));
        entry.set("ps", std::uint64_t(p.ps));
        flowPairs.push(std::move(entry));
    }
    doc.set("flow_pairs", std::move(flowPairs));

    // Per-link accounts; wait_ps reconciles with the profiler's
    // queue-delay histogram sums.
    Json links = Json::array();
    for (const auto &[link, lb] : sink_.links()) {
        Json entry = Json::object();
        entry.set("id", std::uint64_t(link));
        entry.set("recvs", lb.recvs);
        entry.set("wait_ps", std::uint64_t(lb.waitPs));
        entry.set("shares", sharesJson(lb.shares));
        links.push(std::move(entry));
    }
    doc.set("links", std::move(links));

    // Blocked-by chains: from the most-delayed transfers, follow each
    // transfer's dominant blocking vector through span identity.
    struct Head
    {
        SpanId span;
        Tick waitPs;
    };
    std::vector<Head> heads;
    for (const auto &[span, tb] : sink_.transfers())
        if (tb.closed && tb.waitPs > 0)
            heads.push_back({span, tb.waitPs});
    std::stable_sort(heads.begin(), heads.end(),
                     [](const Head &a, const Head &b) {
                         return a.waitPs > b.waitPs;
                     });
    if (heads.size() > kMaxBlameChains)
        heads.resize(kMaxBlameChains);
    Json chains = Json::array();
    for (const Head &head : heads) {
        Json nodes = Json::array();
        std::set<SpanId> visited;
        SpanId at = head.span;
        Tick via = 0;
        for (std::size_t depth = 0; depth < kMaxChainDepth; ++depth) {
            auto it = sink_.transfers().find(at);
            if (it == sink_.transfers().end() || !visited.insert(at).second)
                break;
            const TransferBlame &tb = it->second;
            Json node = Json::object();
            node.set("flow", std::uint64_t(tb.flow));
            node.set("seq", std::uint64_t(tb.seq));
            node.set("wait_ps", std::uint64_t(tb.waitPs));
            if (depth > 0)
                node.set("via_ps", std::uint64_t(via));
            nodes.push(std::move(node));
            // Dominant blocker: largest vector share, earliest key on
            // ties (map order makes this deterministic).
            const BlamedVector *best = nullptr;
            Tick bestPs = 0;
            for (const auto &[vec, ps] : tb.shares.vectorPs)
                if (ps > bestPs) {
                    best = &vec;
                    bestPs = ps;
                }
            if (!best)
                break;
            at = transferSpan(best->first, best->second);
            via = bestPs;
        }
        if (nodes.size() > 1)
            chains.push(std::move(nodes));
    }
    doc.set("chains", std::move(chains));

    if (schedule_)
        doc.set("schedule", *schedule_);
    doc.set("windows", sink_.grid().toJson());
    return doc;
}

std::string
renderBlameSummary(const Json &blame, unsigned top_k)
{
    const std::string bench =
        blame["bench"].isNull() ? "?" : blame["bench"].str();
    std::string out = format("== tsm blame: {} ==\n", bench);
    if (blame.has("seed"))
        out += format("seed: {}, source: {}\n", blame["seed"].integer(),
                      blame["source"].str());
    const Json &totals = blame["totals"];
    const double waitPs = totals["wait_ps"].number();
    auto pct = [waitPs](double ps) {
        return waitPs > 0 ? 100.0 * ps / waitPs : 0.0;
    };
    out += format("wait decomposed: {} ps over {} recvs — flows {} ps "
                  "({} %), local {} ps ({} %), margin {} ps ({} %)\n",
                  totals["wait_ps"].integer(), totals["recvs"].integer(),
                  totals["blamed_ps"].integer(),
                  format("{}", pct(totals["blamed_ps"].number())),
                  totals["local_ps"].integer(),
                  format("{}", pct(totals["local_ps"].number())),
                  totals["margin_ps"].integer(),
                  format("{}", pct(totals["margin_ps"].number())));

    out += "\ntop contended links (by decomposed wait):\n";
    struct LinkRow
    {
        std::int64_t id;
        std::int64_t waitPs;
        std::int64_t recvs;
    };
    std::vector<LinkRow> rows;
    for (const Json &link : blame["links"].items())
        rows.push_back({link["id"].integer(), link["wait_ps"].integer(),
                        link["recvs"].integer()});
    std::stable_sort(rows.begin(), rows.end(),
                     [](const LinkRow &a, const LinkRow &b) {
                         return a.waitPs > b.waitPs;
                     });
    for (std::size_t r = 0; r < std::min<std::size_t>(rows.size(), top_k);
         ++r)
        out += format("  link {}: {} ps over {} recvs\n", rows[r].id,
                      rows[r].waitPs, rows[r].recvs);

    const Json &pairs = blame["flow_pairs"];
    if (pairs.size() > 0) {
        out += "\ntop blamed flow pairs (runtime, blocked <- blocker):\n";
        for (std::size_t i = 0;
             i < std::min<std::size_t>(pairs.size(), top_k); ++i) {
            const Json &p = pairs.at(i);
            out += format("  flow {} <- flow {}: {} ps\n",
                          p["blocked"].integer(), p["blocker"].integer(),
                          p["ps"].integer());
        }
    }

    const Json &sched = blame["schedule"];
    if (!sched.isNull()) {
        out += format("\nschedule (compile-time) blame: {} delay cycles "
                      "({} issue-limited):\n",
                      sched["total_delay_cycles"].integer(),
                      sched["issue_delay_cycles"].integer());
        const Json &spairs = sched["flow_pairs"];
        for (std::size_t i = 0;
             i < std::min<std::size_t>(spairs.size(), top_k); ++i) {
            const Json &p = spairs.at(i);
            out += format("  flow {} <- flow {}: {} cycles\n",
                          p["blocked"].integer(), p["blocker"].integer(),
                          p["cycles"].integer());
        }
    }

    const Json &chains = blame["chains"];
    if (chains.size() > 0) {
        out += "\nblocked-by chains (worst waits first):\n";
        for (std::size_t i = 0;
             i < std::min<std::size_t>(chains.size(), top_k); ++i) {
            std::string line = "  ";
            const Json &nodes = chains.at(i);
            for (std::size_t n = 0; n < nodes.size(); ++n) {
                const Json &node = nodes.at(n);
                if (n == 0)
                    line += format("flow {}:{} (wait {} ps)",
                                   node["flow"].integer(),
                                   node["seq"].integer(),
                                   node["wait_ps"].integer());
                else
                    line += format(" <- flow {}:{} ({} ps)",
                                   node["flow"].integer(),
                                   node["seq"].integer(),
                                   node["via_ps"].integer());
            }
            out += line + "\n";
        }
    }
    return out;
}

bool
checkBlameExactness(const Json &blame, std::string *why)
{
    bool ok = true;
    auto fail = [&ok, why](std::string line) {
        ok = false;
        if (why) {
            *why += line;
            *why += '\n';
        }
    };
    if (blame["schema"].kind() != Json::Kind::String ||
        blame["schema"].str() != kBlameSchema) {
        fail("not a tsm-blame-v1 document");
        return false;
    }
    if (blame["transfers"].kind() != Json::Kind::Array ||
        blame["links"].kind() != Json::Kind::Array ||
        blame["windows"]["links"].kind() != Json::Kind::Array) {
        fail("transfers/links/windows sections missing or malformed");
        return false;
    }

    for (const Json &t : blame["transfers"].items()) {
        const std::int64_t wait = t["wait_ps"].integer();
        const std::int64_t sum = sharesSum(t["shares"]);
        if (sum != wait)
            fail(format("transfer flow {} seq {}: shares sum {} != "
                        "wait_ps {}",
                        t["flow"].integer(), t["seq"].integer(), sum,
                        wait));
    }

    std::map<std::int64_t, std::int64_t> linkWait;
    std::int64_t totalWait = 0;
    for (const Json &link : blame["links"].items()) {
        const std::int64_t wait = link["wait_ps"].integer();
        const std::int64_t sum = sharesSum(link["shares"]);
        if (sum != wait)
            fail(format("link {}: shares sum {} != wait_ps {}",
                        link["id"].integer(), sum, wait));
        linkWait[link["id"].integer()] = wait;
        totalWait += wait;
    }
    if (totalWait != blame["totals"]["wait_ps"].integer())
        fail(format("links wait total {} != totals.wait_ps {}", totalWait,
                    blame["totals"]["wait_ps"].integer()));

    for (const Json &link : blame["windows"]["links"].items()) {
        std::int64_t cells = 0;
        for (const Json &c : link["cells"].items())
            cells += c.integer();
        auto it = linkWait.find(link["id"].integer());
        if (it == linkWait.end())
            fail(format("windows name link {} absent from accounts",
                        link["id"].integer()));
        else if (cells != it->second)
            fail(format("link {}: windowed cells sum {} != wait_ps {}",
                        link["id"].integer(), cells, it->second));
    }
    return ok;
}

} // namespace tsm
