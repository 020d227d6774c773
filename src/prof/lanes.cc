#include "prof/lanes.hh"

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/format.hh"
#include "common/table.hh"
#include "net/flit.hh"
#include "scenario/scenario.hh"

namespace tsm {

namespace {

/** Per-lane entries serialized in full before the detail truncates. */
constexpr std::size_t kMaxLaneEntries = 512;

/** Lanes whose per-phase cells ride along for the heatmap. */
constexpr std::size_t kMaxHeatmapLanes = 16;

} // namespace

Tick
conservativeLookaheadPs(const Topology &topo)
{
    Tick min = kTickInvalid;
    for (LinkId l = 0; l < topo.links().size(); ++l) {
        if (!topo.linkEnabled(l))
            continue;
        const Tick hop = Tick(kVectorSerializationPs) +
                         linkPropagationPs(topo.links()[l].cls);
        min = std::min(min, hop);
    }
    return min == kTickInvalid ? kDefaultLookaheadPs : min;
}

const char *
laneKindName(LaneKind kind)
{
    switch (kind) {
      case LaneKind::Chip:
        return "chip";
      case LaneKind::Link:
        return "link";
      case LaneKind::Sync:
        return "sync";
    }
    return "?";
}

LaneKey
LaneSink::classify(const TraceEvent &ev) const
{
    switch (ev.cat) {
      case TraceCat::Chip:
      case TraceCat::Ssn:
        // Live Ssn events (send/recv/corrupt/span_*) are emitted by
        // the chip that executes them; they ride the chip's lane.
        return {LaneKind::Chip, ev.actor, 0};
      case TraceCat::Net: {
        // Control flits and sync-flow traffic belong to the shared
        // sync lane; data flows get a lane per link direction.
        if (ev.op != TraceOp::Ctl && isDataFlow(FlowId(ev.a))) {
            std::uint8_t dir = 0;
            if (auto it = hopDir_.find(ev.span); it != hopDir_.end())
                dir = it->second;
            return {LaneKind::Link, ev.actor, dir};
        }
        return {LaneKind::Sync, 0, 0};
      }
      default:
        return {LaneKind::Sync, 0, 0};
    }
}

void
LaneSink::event(const TraceEvent &ev)
{
    // traceSchedule()'s pre-run replay is bookkeeping, not live work:
    // count it apart so the lane/phase reconciliation stays exact over
    // the events a parallel engine would execute.
    if (ev.op == TraceOp::Hop || ev.op == TraceOp::Flow ||
        ev.op == TraceOp::Makespan) {
        ++scheduleEvents_;
        return;
    }

    const LaneKey key = classify(ev);
    LaneStats &lane = lanes_[key];
    ++lane.events;
    lane.busyPs += ev.dur;
    if (lane.firstTick == kTickInvalid)
        lane.firstTick = ev.tick;
    lane.lastTick = std::max(lane.lastTick, ev.tick + ev.dur);

    ++events_;
    busyPs_ += ev.dur;

    const std::uint64_t phase = ev.tick / lookahead_;
    ++phaseLane_[phase][key];

    // Critical path: an event follows its lane's previous event and —
    // through span ancestry — its transfer's last event wherever that
    // lane was.
    std::uint64_t depth = lane.depth + 1;
    if (ev.span != kSpanNone) {
        const SpanId parent = spanParent(ev.span);
        auto it = spanState_.find(parent);
        if (it != spanState_.end()) {
            if (!(it->second.lane == key)) {
                ++crossLaneEvents_;
                ++lane.crossIn;
                if (it->second.phase == phase)
                    ++samePhaseCrossLane_;
            }
            depth = std::max(depth, it->second.depth + 1);
        }
        spanState_[parent] = SpanState{key, phase, depth};
    }
    lane.depth = depth;
    criticalPath_ = std::max(criticalPath_, depth);
}

void
LaneCollector::onCompiled(const RunIdentity &run,
                           const CompiledScenario *compiled)
{
    Observer::onCompiled(run, compiled);
    if (compiled)
        setSchedule(compiled->schedule, compiled->topo);
}

void
LaneCollector::setSchedule(const NetworkSchedule &sched,
                           const Topology &topo)
{
    sink_.setLookahead(conservativeLookaheadPs(topo));
    for (const ScheduledVector &v : sched.vectors) {
        const SpanId parent = transferSpan(v.flow, v.seq);
        for (std::size_t h = 0; h < v.hops.size(); ++h) {
            const ScheduledHop &hop = v.hops[h];
            if (hop.link >= topo.links().size())
                continue;
            sink_.noteHopDirection(
                spanChild(parent, unsigned(h)),
                topo.links()[hop.link].a == hop.from ? 0 : 1);
        }
    }
}

Json
LaneCollector::report() const
{
    Json doc = documentHead(kLanesSchema);
    doc.set("lookahead_ps", std::uint64_t(sink_.lookaheadPs()));

    Json totals = Json::object();
    totals.set("events", sink_.events());
    totals.set("schedule_events", sink_.scheduleEvents());
    totals.set("busy_ps", std::uint64_t(sink_.busyPs()));
    totals.set("spans", sink_.spans());
    totals.set("cross_lane_events", sink_.crossLaneEvents());
    totals.set("same_phase_cross_lane", sink_.samePhaseCrossLane());
    doc.set("totals", std::move(totals));

    doc.set("lanes_total", std::uint64_t(sink_.lanes().size()));

    // Per-kind aggregates are always complete, so the reconciliation
    // invariant never depends on the (truncatable) detail below.
    struct KindAgg
    {
        std::uint64_t lanes = 0;
        std::uint64_t events = 0;
        Tick busyPs = 0;
        std::uint64_t crossIn = 0;
    };
    KindAgg agg[3];
    for (const auto &[key, st] : sink_.lanes()) {
        KindAgg &a = agg[unsigned(key.kind)];
        ++a.lanes;
        a.events += st.events;
        a.busyPs += st.busyPs;
        a.crossIn += st.crossIn;
    }
    Json kinds = Json::array();
    for (const LaneKind kind :
         {LaneKind::Chip, LaneKind::Link, LaneKind::Sync}) {
        const KindAgg &a = agg[unsigned(kind)];
        Json entry = Json::object();
        entry.set("kind", laneKindName(kind));
        entry.set("lanes", a.lanes);
        entry.set("events", a.events);
        entry.set("busy_ps", std::uint64_t(a.busyPs));
        entry.set("cross_in", a.crossIn);
        kinds.push(std::move(entry));
    }
    doc.set("lane_kinds", std::move(kinds));

    // Per-lane detail, busiest first (map order breaks ties), capped
    // so a 10k-TSP run cannot explode the document.
    std::vector<std::pair<LaneKey, const LaneStats *>> order;
    for (const auto &[key, st] : sink_.lanes())
        order.push_back({key, &st});
    std::stable_sort(order.begin(), order.end(),
                     [](const auto &a, const auto &b) {
                         return a.second->events > b.second->events;
                     });
    Json lanes = Json::array();
    for (std::size_t i = 0;
         i < std::min(order.size(), kMaxLaneEntries); ++i) {
        const auto &[key, st] = order[i];
        Json entry = Json::object();
        entry.set("kind", laneKindName(key.kind));
        entry.set("id", std::uint64_t(key.id));
        if (key.kind == LaneKind::Link)
            entry.set("dir", std::uint64_t(key.dir));
        entry.set("events", st->events);
        entry.set("busy_ps", std::uint64_t(st->busyPs));
        entry.set("first_tick", std::uint64_t(
            st->firstTick == kTickInvalid ? 0 : st->firstTick));
        entry.set("last_tick", std::uint64_t(st->lastTick));
        entry.set("cross_in", st->crossIn);
        lanes.push(std::move(entry));
    }
    doc.set("lanes", std::move(lanes));

    // Phase aggregates: every phase from 0 to the last populated one,
    // empty phases included, so the arrays line up with wall time.
    const auto &pl = sink_.phases();
    const std::uint64_t phaseCount =
        pl.empty() ? 0 : pl.rbegin()->first + 1;
    std::vector<std::uint64_t> phaseEvents(phaseCount, 0);
    std::vector<std::uint64_t> phaseActive(phaseCount, 0);
    std::vector<std::uint64_t> phaseMaxLane(phaseCount, 0);
    for (const auto &[p, row] : pl) {
        std::uint64_t total = 0;
        std::uint64_t maxLane = 0;
        for (const auto &[key, n] : row) {
            (void)key;
            total += n;
            maxLane = std::max(maxLane, n);
        }
        phaseEvents[p] = total;
        phaseActive[p] = std::uint64_t(row.size());
        phaseMaxLane[p] = maxLane;
    }
    Json phases = Json::object();
    phases.set("count", phaseCount);
    Json evArr = Json::array();
    Json activeArr = Json::array();
    Json maxArr = Json::array();
    for (std::uint64_t p = 0; p < phaseCount; ++p) {
        evArr.push(phaseEvents[p]);
        activeArr.push(phaseActive[p]);
        maxArr.push(phaseMaxLane[p]);
    }
    phases.set("events", std::move(evArr));
    phases.set("active_lanes", std::move(activeArr));
    phases.set("max_lane_events", std::move(maxArr));
    doc.set("phases", std::move(phases));

    // Lane-occupancy histogram: phases by how many lanes were live.
    std::map<std::uint64_t, std::uint64_t> hist;
    for (std::uint64_t p = 0; p < phaseCount; ++p)
        ++hist[phaseActive[p]];
    Json occupancy = Json::array();
    for (const auto &[active, count] : hist) {
        Json entry = Json::object();
        entry.set("active_lanes", active);
        entry.set("phases", count);
        occupancy.push(std::move(entry));
    }
    doc.set("occupancy_hist", std::move(occupancy));

    // Per-phase cells of the busiest lanes, for the tsm_lanes heatmap.
    std::map<LaneKey, std::size_t> selected;
    for (std::size_t i = 0;
         i < std::min(order.size(), kMaxHeatmapLanes); ++i)
        selected[order[i].first] = i;
    std::vector<std::vector<std::uint64_t>> cells(
        selected.size(), std::vector<std::uint64_t>(phaseCount, 0));
    for (const auto &[p, row] : pl)
        for (const auto &[key, n] : row)
            if (auto it = selected.find(key); it != selected.end())
                cells[it->second][p] = n;
    Json heatmap = Json::array();
    for (std::size_t i = 0;
         i < std::min(order.size(), kMaxHeatmapLanes); ++i) {
        const LaneKey &key = order[i].first;
        Json entry = Json::object();
        entry.set("kind", laneKindName(key.kind));
        entry.set("id", std::uint64_t(key.id));
        if (key.kind == LaneKind::Link)
            entry.set("dir", std::uint64_t(key.dir));
        Json arr = Json::array();
        for (std::uint64_t p = 0; p < phaseCount; ++p)
            arr.push(cells[selected.at(key)][p]);
        entry.set("cells", std::move(arr));
        heatmap.push(std::move(entry));
    }
    doc.set("heatmap", std::move(heatmap));

    // Speedup bounds under the phase-barrier model: per phase a pool
    // of W workers needs at least max(busiest lane, ceil(events/W))
    // steps (unit cost per event); the whole run can never beat the
    // event-DAG critical path.
    const std::uint64_t total = sink_.events();
    const std::uint64_t cp = sink_.criticalPathEvents();
    const auto bound = [total, cp](std::uint64_t steps) {
        if (total == 0)
            return 1.0;
        const std::uint64_t floor =
            std::max({steps, cp, std::uint64_t(1)});
        return double(total) / double(floor);
    };
    Json critical = Json::object();
    critical.set("events", cp);
    critical.set("bound", bound(cp));
    doc.set("critical_path", std::move(critical));

    Json speedup = Json::array();
    for (const unsigned workers : kLaneWorkerPools) {
        std::uint64_t steps = 0;
        for (std::uint64_t p = 0; p < phaseCount; ++p)
            steps += std::max(phaseMaxLane[p],
                              (phaseEvents[p] + workers - 1) / workers);
        Json entry = Json::object();
        entry.set("workers", std::uint64_t(workers));
        entry.set("bound", bound(steps));
        speedup.push(std::move(entry));
    }
    doc.set("speedup", std::move(speedup));

    std::uint64_t stepsInf = 0;
    for (std::uint64_t p = 0; p < phaseCount; ++p)
        stepsInf += phaseMaxLane[p];
    doc.set("speedup_inf", bound(stepsInf));
    return doc;
}

namespace {

/** Scale a cell against the row maximum into a density glyph. */
char
densityGlyph(std::uint64_t value, std::uint64_t max)
{
    static const char glyphs[] = " .:-=+*#%@";
    if (max == 0 || value == 0)
        return glyphs[0];
    const std::size_t levels = sizeof(glyphs) - 2; // skip blank + NUL
    std::size_t idx = 1 + value * (levels - 1) / max;
    idx = std::min(idx, levels);
    return glyphs[idx];
}

/** Bucket `cells` down to at most `cols` columns by summation. */
std::vector<std::uint64_t>
bucket(const Json &cells, unsigned cols)
{
    const std::size_t n = cells.size();
    const std::size_t width = std::max<std::size_t>(cols, 1);
    std::vector<std::uint64_t> out(std::min(n, width), 0);
    for (std::size_t i = 0; i < n; ++i)
        out[i * out.size() / n] += std::uint64_t(cells.at(i).integer());
    return out;
}

std::string
ribbonLine(const Json &cells, unsigned cols)
{
    const std::vector<std::uint64_t> buckets = bucket(cells, cols);
    std::uint64_t max = 0;
    for (const std::uint64_t b : buckets)
        max = std::max(max, b);
    std::string line;
    for (const std::uint64_t b : buckets)
        line += densityGlyph(b, max);
    return line;
}

std::string
laneLabel(const Json &entry)
{
    std::string label = format("{} {}", entry["kind"].str(),
                               entry["id"].integer());
    if (entry.has("dir"))
        label += entry["dir"].integer() == 0 ? " a>b" : " b>a";
    return label;
}

} // namespace

std::string
renderLanesSummary(const Json &lanes, unsigned top_k, unsigned cols)
{
    const std::string bench =
        lanes["bench"].isNull() ? "?" : lanes["bench"].str();
    std::string out = format("== tsm lanes: {} ==\n", bench);
    if (lanes.has("seed"))
        out += format("seed: {}\n", lanes["seed"].integer());

    const Json &totals = lanes["totals"];
    out += format("lookahead: {} ps -> {} phases\n",
                  lanes["lookahead_ps"].integer(),
                  lanes["phases"]["count"].integer());
    out += format("events: {} live (+{} schedule replay) across {} "
                  "lanes",
                  totals["events"].integer(),
                  totals["schedule_events"].integer(),
                  lanes["lanes_total"].integer());
    for (const Json &kind : lanes["lane_kinds"].items())
        if (kind["lanes"].integer() > 0)
            out += format(", {} {}", kind["lanes"].integer(),
                          kind["kind"].str());
    out += "\n";
    out += format("cross-lane: {} events depend on another lane ({} "
                  "inside their own phase)\n",
                  totals["cross_lane_events"].integer(),
                  totals["same_phase_cross_lane"].integer());
    out += format("critical path: {} events (bound {}x)\n",
                  lanes["critical_path"]["events"].integer(),
                  Table::num(lanes["critical_path"]["bound"].number(), 2));

    out += "\nprojected phase-barrier speedup bounds:\n";
    for (const Json &s : lanes["speedup"].items())
        out += format("  {} workers: {}x\n", s["workers"].integer(),
                      Table::num(s["bound"].number(), 2));
    out += format("  unlimited:  {}x\n",
                  Table::num(lanes["speedup_inf"].number(), 2));

    if (lanes["phases"]["events"].size() > 0) {
        out += format("\nphase ribbon (events per phase, {} cols):\n",
                      std::uint64_t(cols));
        out += "  " + ribbonLine(lanes["phases"]["events"], cols) + "\n";
    }

    const Json &heatmap = lanes["heatmap"];
    if (heatmap.size() > 0) {
        out += "\nbusiest lanes over phases:\n";
        for (std::size_t i = 0;
             i < std::min<std::size_t>(heatmap.size(), top_k); ++i) {
            const Json &entry = heatmap.at(i);
            std::uint64_t events = 0;
            for (const Json &c : entry["cells"].items())
                events += std::uint64_t(c.integer());
            out += format("  {} {} |{}|\n",
                          laneLabel(entry),
                          format("({} ev)", events),
                          ribbonLine(entry["cells"], cols));
        }
    }
    return out;
}

bool
checkLanesInvariants(const Json &lanes, std::string *why)
{
    bool ok = true;
    auto fail = [&ok, why](std::string line) {
        ok = false;
        if (why) {
            *why += line;
            *why += '\n';
        }
    };
    if (lanes["schema"].kind() != Json::Kind::String ||
        lanes["schema"].str() != kLanesSchema) {
        fail("not a tsm-parallel-v1 document");
        return false;
    }
    if (lanes["totals"].kind() != Json::Kind::Object ||
        lanes["lane_kinds"].kind() != Json::Kind::Array ||
        lanes["lanes"].kind() != Json::Kind::Array ||
        lanes["phases"].kind() != Json::Kind::Object ||
        lanes["speedup"].kind() != Json::Kind::Array) {
        fail("totals/lane_kinds/lanes/phases/speedup sections missing "
             "or malformed");
        return false;
    }

    const std::int64_t total = lanes["totals"]["events"].integer();
    const std::int64_t lanesTotal = lanes["lanes_total"].integer();

    std::int64_t kindEvents = 0;
    std::int64_t kindLanes = 0;
    for (const Json &kind : lanes["lane_kinds"].items()) {
        kindEvents += kind["events"].integer();
        kindLanes += kind["lanes"].integer();
    }
    if (kindEvents != total)
        fail(format("lane_kinds events sum {} != totals.events {}",
                    kindEvents, total));
    if (kindLanes != lanesTotal)
        fail(format("lane_kinds lanes sum {} != lanes_total {}",
                    kindLanes, lanesTotal));

    std::int64_t laneEvents = 0;
    for (const Json &lane : lanes["lanes"].items())
        laneEvents += lane["events"].integer();
    if (std::int64_t(lanes["lanes"].size()) == lanesTotal) {
        if (laneEvents != total)
            fail(format("per-lane events sum {} != totals.events {}",
                        laneEvents, total));
    } else if (laneEvents > total) {
        fail(format("truncated per-lane events sum {} exceeds "
                    "totals.events {}",
                    laneEvents, total));
    }

    const Json &phases = lanes["phases"];
    const std::int64_t phaseCount = phases["count"].integer();
    if (std::int64_t(phases["events"].size()) != phaseCount ||
        std::int64_t(phases["active_lanes"].size()) != phaseCount ||
        std::int64_t(phases["max_lane_events"].size()) != phaseCount) {
        fail(format("phase arrays disagree with phases.count {}",
                    phaseCount));
        return false;
    }
    std::int64_t phaseEvents = 0;
    for (std::int64_t p = 0; p < phaseCount; ++p) {
        const std::int64_t ev = phases["events"].at(p).integer();
        const std::int64_t active =
            phases["active_lanes"].at(p).integer();
        const std::int64_t maxLane =
            phases["max_lane_events"].at(p).integer();
        phaseEvents += ev;
        if (maxLane > ev)
            fail(format("phase {}: max lane {} exceeds phase events {}",
                        p, maxLane, ev));
        if ((ev > 0) != (active > 0))
            fail(format("phase {}: {} events but {} active lanes", p,
                        ev, active));
    }
    if (phaseEvents != total)
        fail(format("per-phase events sum {} != totals.events {}",
                    phaseEvents, total));

    std::int64_t histPhases = 0;
    for (const Json &entry : lanes["occupancy_hist"].items())
        histPhases += entry["phases"].integer();
    if (histPhases != phaseCount)
        fail(format("occupancy_hist covers {} phases, expected {}",
                    histPhases, phaseCount));

    const std::int64_t cp = lanes["critical_path"]["events"].integer();
    if (cp > total)
        fail(format("critical path {} exceeds total events {}", cp,
                    total));
    const double cpBound = lanes["critical_path"]["bound"].number();
    constexpr double eps = 1e-9;
    double prev = 0.0;
    for (const Json &s : lanes["speedup"].items()) {
        const double b = s["bound"].number();
        if (b < 1.0 - eps)
            fail(format("speedup bound for {} workers is {} < 1",
                        s["workers"].integer(), b));
        if (b < prev - eps)
            fail(format("speedup bound for {} workers decreases ({} "
                        "after {})",
                        s["workers"].integer(), b, prev));
        if (b > cpBound + eps)
            fail(format("speedup bound for {} workers ({}) exceeds the "
                        "critical-path bound {}",
                        s["workers"].integer(), b, cpBound));
        prev = b;
    }
    const double inf = lanes["speedup_inf"].number();
    if (inf < prev - eps)
        fail(format("speedup_inf {} below the 16-worker bound {}", inf,
                    prev));
    if (inf > cpBound + eps)
        fail(format("speedup_inf {} exceeds the critical-path bound {}",
                    inf, cpBound));
    return ok;
}

} // namespace tsm
