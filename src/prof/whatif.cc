#include "prof/whatif.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "common/table.hh"
#include "common/units.hh"
#include "net/link_params.hh"
#include "scenario/scenario.hh"
#include "ssn/reservation.hh"
#include "ssn/transfer.hh"

namespace tsm {

const char *
leverKindName(LeverKind k)
{
    switch (k) {
      case LeverKind::LinkLatency:
        return "link_latency";
      case LeverKind::LinkBandwidth:
        return "link_bandwidth";
      case LeverKind::FuThroughput:
        return "fu_throughput";
      case LeverKind::HacDrift:
        return "hac_drift";
      case LeverKind::FlowRemoval:
        return "flow_removal";
    }
    return "?";
}

namespace {

/** Speedup factor of the collector's lever catalog. */
constexpr double kLeverFactor = 2.0;

/** Levers serialized into the document (all are still ranked). */
constexpr std::size_t kMaxLevers = 64;

/**
 * A flow's injection cycle under `p`: the fu_throughput lever makes
 * flows sourced at its chip injectable `factor` times earlier.
 */
Cycle
perturbedEarliest(const Perturbation &p, TspId src, Cycle earliest)
{
    if (p.kind == LeverKind::FuThroughput && p.target == src &&
        p.factor > 0.0)
        return Cycle(std::llround(double(earliest) / p.factor));
    return earliest;
}

std::string
factorText(double factor)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", factor);
    return buf;
}

} // namespace

std::string
Perturbation::label() const
{
    switch (kind) {
      case LeverKind::LinkLatency:
        return "link " + std::to_string(target) + " latency x" +
               factorText(factor);
      case LeverKind::LinkBandwidth:
        return "link " + std::to_string(target) + " bandwidth x" +
               factorText(factor);
      case LeverKind::FuThroughput:
        return "tsp " + std::to_string(target) + " compute x" +
               factorText(factor);
      case LeverKind::HacDrift:
        return "hac drift eliminated";
      case LeverKind::FlowRemoval:
        return "flow " + std::to_string(target) + " removed";
    }
    return "?";
}

std::string
Perturbation::key() const
{
    std::string k = leverKindName(kind);
    k += ":" + std::to_string(target);
    if (kind == LeverKind::LinkLatency || kind == LeverKind::LinkBandwidth ||
        kind == LeverKind::FuThroughput)
        k += ":x" + factorText(factor);
    return k;
}

WhatIfEngine::WhatIfEngine(const NetworkSchedule &sched,
                           const Topology &topo)
    : sched_(&sched), topo_(&topo), graph_(sched, topo)
{
    std::set<FlowId> flowSet;
    std::set<LinkId> linkSet;
    for (const ScheduledVector &sv : sched_->vectors) {
        flowSet.insert(sv.flow);
        for (const ScheduledHop &sh : sv.hops)
            linkSet.insert(sh.link);
    }
    flowOrder_.assign(flowSet.begin(), flowSet.end());
    usedLinks_.assign(linkSet.begin(), linkSet.end());
}

WhatIfEngine::Recompute
WhatIfEngine::recompute(const Perturbation &p) const
{
    const auto &links = topo_->links();
    const double f = p.factor > 0.0 ? p.factor : 1.0;

    auto serPs = [&](LinkId l) {
        double s = kVectorSerializationPs;
        if (p.kind == LeverKind::LinkBandwidth && p.target == l)
            s /= f;
        return s;
    };
    auto propPs = [&](LinkId l) {
        double pr = double(linkPropagationPs(links[l].cls));
        if (p.kind == LeverKind::LinkLatency && p.target == l)
            pr /= f;
        return pr;
    };
    // Mirrors ssn/transfer.hh flightCycles() so the unperturbed value
    // is reproduced bit-for-bit.
    auto flight = [&](LinkId l) {
        return Cycle((serPs(l) + propPs(l)) / kCorePeriodPs) + 1;
    };
    auto window = [&](LinkId l) {
        if (p.kind == LeverKind::LinkBandwidth && p.target == l) {
            const Cycle w =
                Cycle(std::ceil(double(kScheduleWindowCycles) / f));
            return w < 1 ? Cycle(1) : w;
        }
        return kScheduleWindowCycles;
    };

    const FlowId removedFlow =
        p.kind == LeverKind::FlowRemoval ? FlowId(p.target) : kFlowInvalid;

    const auto &nodes = graph_.hops;
    Recompute r;
    r.depart.resize(nodes.size(), 0);
    r.arrive.resize(nodes.size(), 0);
    r.removed.resize(nodes.size(), false);
    for (std::int32_t i : graph_.departureOrder) {
        const ScheduleGraph::Hop &n = nodes[i];
        const FlowId flow = sched_->vectors[n.vec].flow;
        if (flow == removedFlow) {
            r.removed[i] = true;
            continue;
        }
        // Hop 0 departs from the flow's source chip.
        Cycle c = n.hop > 0 ? r.arrive[n.prevInVec] + forwardCycles()
                            : perturbedEarliest(p, n.from,
                                                flowEarliest(*sched_, flow));
        for (std::int32_t q = n.prevDir; q != -1; q = nodes[q].prevDir) {
            if (r.removed[q])
                continue;
            // Same direction implies same link as n.
            c = std::max(c, r.depart[q] + window(nodes[q].link));
            break;
        }
        for (std::int32_t q = n.prevIssue; q != -1;
             q = nodes[q].prevIssue) {
            if (r.removed[q])
                continue;
            c = std::max(c, r.depart[q] + 1);
            break;
        }
        r.depart[i] = c;
        r.arrive[i] = c + flight(n.link);
        if (r.arrive[i] > r.makespan)
            r.makespan = r.arrive[i];
    }
    return r;
}

WhatIfProjection
WhatIfEngine::project(const Perturbation &p) const
{
    const Recompute r = recompute(p);

    WhatIfProjection pr;
    pr.lever = p;
    pr.baseMakespan = sched_->makespan;
    pr.projectedMakespan = r.makespan;
    pr.deltaCycles =
        std::int64_t(pr.baseMakespan) - std::int64_t(pr.projectedMakespan);

    std::map<FlowId, Cycle> newCompletion;
    std::set<FlowId> removedFlows;
    std::size_t node = 0;
    for (std::uint32_t v = 0; v < sched_->vectors.size(); ++v) {
        const ScheduledVector &sv = sched_->vectors[v];
        for (std::uint32_t h = 0; h < sv.hops.size(); ++h, ++node) {
            if (r.removed[node]) {
                removedFlows.insert(sv.flow);
                if (h + 1 == sv.hops.size())
                    ++pr.removedVectors;
                continue;
            }
            if (r.depart[node] != sv.hops[h].depart)
                ++pr.affectedHops;
            Cycle &c = newCompletion[sv.flow];
            c = std::max(c, r.arrive[node]);
        }
    }
    for (FlowId flow : flowOrder_) {
        if (removedFlows.count(flow)) {
            pr.affectedFlows.push_back(flow);
            continue;
        }
        const auto it = sched_->flows.find(flow);
        const Cycle before =
            it == sched_->flows.end() ? 0 : it->second.lastArrival;
        if (newCompletion[flow] != before)
            pr.affectedFlows.push_back(flow);
    }
    return pr;
}

WhatIfCounterfactual
WhatIfEngine::rebuild(const Perturbation &p) const
{
    const Recompute r = recompute(p);
    const FlowId removedFlow =
        p.kind == LeverKind::FlowRemoval ? FlowId(p.target) : kFlowInvalid;

    WhatIfCounterfactual cf;
    cf.projection = project(p);

    std::size_t node = 0;
    for (std::uint32_t v = 0; v < sched_->vectors.size(); ++v) {
        const ScheduledVector &sv = sched_->vectors[v];
        if (sv.flow == removedFlow) {
            node += sv.hops.size();
            continue;
        }
        ScheduledVector out = sv;
        for (std::uint32_t h = 0; h < sv.hops.size(); ++h, ++node) {
            out.hops[h].depart = r.depart[node];
            out.hops[h].arrive = r.arrive[node];
        }
        cf.schedule.vectors.push_back(std::move(out));
    }
    for (const ScheduledVector &sv : cf.schedule.vectors) {
        FlowSummary &fs = cf.schedule.flows[sv.flow];
        if (fs.vectors == 0) {
            fs.flow = sv.flow;
            fs.firstDeparture = sv.departure();
            fs.earliest = perturbedEarliest(p, sv.hops.front().from,
                                            flowEarliest(*sched_, sv.flow));
            if (auto it = sched_->flows.find(sv.flow);
                it != sched_->flows.end())
                fs.pathsUsed = it->second.pathsUsed;
        }
        fs.firstDeparture = std::min(fs.firstDeparture, sv.departure());
        fs.lastArrival = std::max(fs.lastArrival, sv.arrival());
        ++fs.vectors;
    }
    cf.schedule.makespan = r.makespan;

    if ((p.kind == LeverKind::LinkLatency ||
         p.kind == LeverKind::LinkBandwidth) &&
        p.factor > 0.0) {
        const auto &links = topo_->links();
        if (p.target < links.size()) {
            double ser = kVectorSerializationPs;
            double prop = double(linkPropagationPs(links[p.target].cls));
            if (p.kind == LeverKind::LinkBandwidth)
                ser /= p.factor;
            else
                prop /= p.factor;
            cf.linkTiming.push_back({LinkId(p.target),
                                     Tick(std::llround(ser)),
                                     Tick(std::llround(prop))});
        }
    }
    return cf;
}

std::vector<Perturbation>
WhatIfEngine::enumerateLevers(double factor) const
{
    std::vector<Perturbation> out;
    for (LinkId l : usedLinks_)
        out.push_back({LeverKind::LinkLatency, l, factor});
    for (LinkId l : usedLinks_)
        out.push_back({LeverKind::LinkBandwidth, l, factor});

    // Compute levers only where they can matter: chips that source a
    // flow whose producer finishes after cycle 0.
    std::set<TspId> sources;
    for (const ScheduledVector &sv : sched_->vectors)
        if (flowEarliest(*sched_, sv.flow) > 0)
            sources.insert(sv.hops.front().from);
    for (TspId s : sources)
        out.push_back({LeverKind::FuThroughput, s, factor});

    if (flowOrder_.size() > 1)
        for (FlowId f : flowOrder_)
            out.push_back({LeverKind::FlowRemoval, std::uint32_t(f), 1.0});

    out.push_back({LeverKind::HacDrift, 0, 1.0});
    return out;
}

bool
WhatIfEngine::identityExact(std::string *why) const
{
    const Recompute r = recompute({LeverKind::HacDrift, 0, 1.0});
    std::size_t node = 0;
    for (std::uint32_t v = 0; v < sched_->vectors.size(); ++v) {
        const ScheduledVector &sv = sched_->vectors[v];
        for (std::uint32_t h = 0; h < sv.hops.size(); ++h, ++node) {
            if (r.depart[node] == sv.hops[h].depart &&
                r.arrive[node] == sv.hops[h].arrive)
                continue;
            if (why) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "flow %u seq %u hop %u: scheduled "
                              "depart %llu, recomputed %llu",
                              unsigned(sv.flow), sv.seq, h,
                              (unsigned long long)sv.hops[h].depart,
                              (unsigned long long)r.depart[node]);
                *why = buf;
            }
            return false;
        }
    }
    if (r.makespan != sched_->makespan) {
        if (why)
            *why = "recomputed makespan " + std::to_string(r.makespan) +
                   " != scheduled " + std::to_string(sched_->makespan);
        return false;
    }
    return true;
}

std::vector<WhatIfProjection>
rankedLevers(const WhatIfEngine &engine, double factor)
{
    std::vector<WhatIfProjection> out;
    for (const Perturbation &p : engine.enumerateLevers(factor))
        out.push_back(engine.project(p));
    std::sort(out.begin(), out.end(),
              [](const WhatIfProjection &a, const WhatIfProjection &b) {
                  if (a.deltaCycles != b.deltaCycles)
                      return a.deltaCycles > b.deltaCycles;
                  if (a.lever.kind != b.lever.kind)
                      return std::uint8_t(a.lever.kind) <
                             std::uint8_t(b.lever.kind);
                  return a.lever.target < b.lever.target;
              });
    return out;
}

Cycle
staticCompletionCycles(const ProgramSet &programs)
{
    Cycle last = 0;
    for (const Program &prog : programs.byChip)
        for (const Instr &i : prog.instrs)
            if (i.op == Op::Recv && i.issueAt != kCycleUnscheduled &&
                i.issueAt > last)
                last = i.issueAt;
    return last;
}

void
WhatIfCollector::onCompiled(const RunIdentity &run,
                             const CompiledScenario *compiled)
{
    Observer::onCompiled(run, compiled);
    if (compiled)
        setSchedule(*compiled);
}

void
WhatIfCollector::setSchedule(const CompiledScenario &compiled)
{
    const NetworkSchedule &sched = compiled.schedule;
    const Topology &topo = compiled.topo;
    hasSchedule_ = true;
    makespan_ = sched.makespan;
    vectors_ = sched.vectors.size();
    flows_ = sched.flows.size();

    const SsnAnalysis analysis = analyzeSchedule(sched, topo);
    predictedCompletion_ = analysis.predictedCompletionCycles;
    hops_ = analysis.hopsTotal;
    contendedHops_ = analysis.contendedHops;
    criticalPathHops_ = analysis.criticalPath.size();

    std::set<LinkId> critLinks;
    std::set<FlowId> critFlows;
    for (const CritHop &h : analysis.criticalPath) {
        critLinks.insert(h.link);
        critFlows.insert(h.flow);
    }
    std::set<TspId> critSources;
    for (const ScheduledVector &sv : sched.vectors)
        if (critFlows.count(sv.flow))
            critSources.insert(sv.hops.front().from);

    std::set<LinkId> used;
    for (const ScheduledVector &sv : sched.vectors)
        for (const ScheduledHop &h : sv.hops)
            used.insert(h.link);
    linksUsed_ = used.size();

    staticCompletion_ = staticCompletionCycles(compiled.programs);

    const WhatIfEngine engine(sched, topo);
    levers_.clear();
    for (const WhatIfProjection &pr : rankedLevers(engine, kLeverFactor)) {
        LeverRecord rec;
        rec.lever = pr.lever;
        rec.projectedMakespan = pr.projectedMakespan;
        rec.deltaCycles = pr.deltaCycles;
        rec.affectedFlowsTotal = pr.affectedFlows.size();
        rec.affectedFlows = pr.affectedFlows;
        if (rec.affectedFlows.size() > 8)
            rec.affectedFlows.resize(8);
        rec.affectedHops = pr.affectedHops;
        rec.removedVectors = pr.removedVectors;
        switch (pr.lever.kind) {
          case LeverKind::LinkLatency:
          case LeverKind::LinkBandwidth:
            rec.onCriticalPath = critLinks.count(LinkId(pr.lever.target));
            break;
          case LeverKind::FuThroughput:
            rec.onCriticalPath = critSources.count(TspId(pr.lever.target));
            break;
          case LeverKind::FlowRemoval:
            rec.onCriticalPath = critFlows.count(FlowId(pr.lever.target));
            break;
          case LeverKind::HacDrift:
            rec.onCriticalPath = false;
            break;
        }
        levers_.push_back(std::move(rec));
    }
}

Json
WhatIfCollector::report() const
{
    Json doc = Json::object();
    doc.set("schema", kWhatIfSchema);
    doc.set("bench", identity().bench);
    doc.set("seed", std::int64_t(identity().seed));
    doc.set("lever_factor", kLeverFactor);

    const Tick lastTick = sink_.last();
    const bool observed = lastTick > 0;
    const Cycle observedCompletion =
        observed ? Cycle(std::llround(double(lastTick) / kCorePeriodPs))
                 : 0;

    Json base = Json::object();
    base.set("makespan_cycles", std::int64_t(makespan_));
    base.set("predicted_completion_cycles",
             std::int64_t(predictedCompletion_));
    if (hasSchedule_)
        base.set("static_completion_cycles",
                 std::int64_t(staticCompletion_));
    else
        base.set("static_completion_cycles", Json());
    if (observed)
        base.set("observed_completion_cycles",
                 std::int64_t(observedCompletion));
    else
        base.set("observed_completion_cycles", Json());
    base.set("hops", std::int64_t(hops_));
    base.set("vectors", std::int64_t(vectors_));
    base.set("flows", std::int64_t(flows_));
    base.set("links_used", std::int64_t(linksUsed_));
    base.set("contended_hops", std::int64_t(contendedHops_));
    base.set("critical_path_hops", std::int64_t(criticalPathHops_));
    doc.set("base", std::move(base));

    // The drift lever's delta is the only part of the document that
    // depends on the simulated run: observed completion minus the
    // static completion of the lowered programs. Drift-free clocks
    // make it exactly zero.
    std::vector<LeverRecord> ranked = levers_;
    for (LeverRecord &rec : ranked)
        if (rec.lever.kind == LeverKind::HacDrift && hasSchedule_ &&
            observed)
            rec.deltaCycles = std::int64_t(observedCompletion) -
                              std::int64_t(staticCompletion_);
    std::sort(ranked.begin(), ranked.end(),
              [](const LeverRecord &a, const LeverRecord &b) {
                  if (a.deltaCycles != b.deltaCycles)
                      return a.deltaCycles > b.deltaCycles;
                  if (a.lever.kind != b.lever.kind)
                      return std::uint8_t(a.lever.kind) <
                             std::uint8_t(b.lever.kind);
                  return a.lever.target < b.lever.target;
              });

    Json levers = Json::array();
    std::size_t shown = 0;
    for (const LeverRecord &rec : ranked) {
        if (shown >= kMaxLevers)
            break;
        ++shown;
        Json l = Json::object();
        l.set("rank", std::int64_t(shown));
        l.set("kind", leverKindName(rec.lever.kind));
        l.set("target", std::int64_t(rec.lever.target));
        l.set("factor", rec.lever.factor);
        l.set("label", rec.lever.label());
        l.set("key", rec.lever.key());
        l.set("projected_makespan_cycles",
              std::int64_t(rec.projectedMakespan));
        l.set("delta_cycles", rec.deltaCycles);
        l.set("rel", makespan_ > 0
                         ? double(rec.deltaCycles) / double(makespan_)
                         : 0.0);
        Json flows = Json::array();
        for (FlowId f : rec.affectedFlows)
            flows.push(std::int64_t(f));
        l.set("affected_flows", std::move(flows));
        l.set("affected_flows_total",
              std::int64_t(rec.affectedFlowsTotal));
        l.set("affected_hops", std::int64_t(rec.affectedHops));
        l.set("removed_vectors", std::int64_t(rec.removedVectors));
        l.set("on_critical_path", rec.onCriticalPath);
        levers.push(std::move(l));
    }
    doc.set("levers", std::move(levers));
    doc.set("levers_total", std::int64_t(ranked.size()));
    doc.set("levers_shown", std::int64_t(shown));
    return doc;
}

std::string
renderWhatIfSummary(const Json &doc, unsigned top_k)
{
    std::string out;
    out += "=== what-if: " + doc["bench"].str() + " seed " +
           std::to_string(doc["seed"].integer()) + " ===\n";

    const Json &base = doc["base"];
    out += "base: makespan " +
           std::to_string(base["makespan_cycles"].integer()) +
           " cycles, completion " +
           (base["static_completion_cycles"].isNull()
                ? std::string("-")
                : std::to_string(
                      base["static_completion_cycles"].integer())) +
           " static / " +
           (base["observed_completion_cycles"].isNull()
                ? std::string("-")
                : std::to_string(
                      base["observed_completion_cycles"].integer())) +
           " observed, " + std::to_string(base["hops"].integer()) +
           " hops on " + std::to_string(base["links_used"].integer()) +
           " links (" + std::to_string(base["contended_hops"].integer()) +
           " contended)\n";

    const Json &levers = doc["levers"];
    out += "levers (factor x" + factorText(doc["lever_factor"].number()) +
           ", " + std::to_string(std::min<std::int64_t>(
                      top_k, std::int64_t(levers.size()))) +
           " of " + std::to_string(doc["levers_total"].integer()) +
           " shown):\n";

    Table table({"rank", "lever", "delta", "rel", "projected", "flows",
                 "crit"});
    unsigned shown = 0;
    for (const Json &l : levers.items()) {
        if (shown++ >= top_k)
            break;
        char rel[32];
        std::snprintf(rel, sizeof(rel), "%+.1f%%",
                      100.0 * l["rel"].number());
        table.addRow({std::to_string(l["rank"].integer()),
                      l["label"].str(),
                      std::to_string(l["delta_cycles"].integer()), rel,
                      std::to_string(
                          l["projected_makespan_cycles"].integer()),
                      std::to_string(l["affected_flows_total"].integer()),
                      l["on_critical_path"].boolean() ? "*" : ""});
    }
    out += table.ascii();
    return out;
}

bool
checkWhatIfInvariants(const Json &doc, std::string *why)
{
    auto fail = [why](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (doc["schema"].isNull() || doc["schema"].str() != kWhatIfSchema)
        return fail("not a " + std::string(kWhatIfSchema) + " document");
    const Json &base = doc["base"];
    if (!base["makespan_cycles"].isNumber())
        return fail("base.makespan_cycles missing");
    const std::int64_t makespan = base["makespan_cycles"].integer();
    const Json &levers = doc["levers"];
    if (levers.kind() != Json::Kind::Array)
        return fail("levers missing");

    std::int64_t prevDelta = 0;
    bool first = true;
    std::size_t rank = 0;
    for (const Json &l : levers.items()) {
        ++rank;
        const std::string label =
            l["label"].isNull() ? "?" : l["label"].str();
        if (l["rank"].integer() != std::int64_t(rank))
            return fail("lever \"" + label + "\": rank " +
                        std::to_string(l["rank"].integer()) +
                        " out of order (expected " +
                        std::to_string(rank) + ")");
        const std::int64_t delta = l["delta_cycles"].integer();
        const std::int64_t projected =
            l["projected_makespan_cycles"].integer();
        const std::string kind = l["kind"].str();
        if (kind == "hac_drift") {
            // The drift lever leaves the schedule untouched; its delta
            // is measured against the simulated run instead.
            if (projected != makespan)
                return fail("lever \"" + label +
                            "\": drift lever changed the projected "
                            "makespan");
        } else {
            if (delta != makespan - projected)
                return fail(
                    "lever \"" + label + "\": delta " +
                    std::to_string(delta) +
                    " != base - projected (" +
                    std::to_string(makespan - projected) + ")");
            const bool speedup =
                kind == "flow_removal" || l["factor"].number() >= 1.0;
            if (speedup && delta < 0)
                return fail("lever \"" + label +
                            "\": speedup lever projects a slowdown (" +
                            std::to_string(delta) + " cycles)");
        }
        if (!first && delta > prevDelta)
            return fail("lever \"" + label +
                        "\": ranked levers not sorted by delta");
        prevDelta = delta;
        first = false;
    }
    if (doc["levers_shown"].integer() != std::int64_t(rank))
        return fail("levers_shown != serialized lever count");
    return true;
}

} // namespace tsm
