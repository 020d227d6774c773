#include "prof/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/format.hh"
#include "common/table.hh"
#include "hostprof/hostprof.hh"
#include "scenario/scenario.hh"
#include "telemetry/phase.hh"

namespace tsm {

namespace {

/** Cap on critical-path hops serialized into the JSON document. */
constexpr std::size_t kMaxJsonPathHops = 128;

/** Cap on per-transfer waterfalls serialized into the document. */
constexpr std::size_t kMaxJsonTransfers = 512;

Json
histogramJson(const Log2Histogram &h)
{
    Json j = Json::object();
    j.set("count", h.count());
    j.set("mean", h.mean());
    j.set("min", h.count() ? h.min() : 0);
    j.set("p50", h.p50());
    j.set("p95", h.p95());
    j.set("p99", h.p99());
    j.set("max", h.count() ? h.max() : 0);
    return j;
}

double
frac(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

void
ProfileCollector::onCompiled(const RunIdentity &run,
                             const CompiledScenario *compiled)
{
    Observer::onCompiled(run, compiled);
    if (compiled)
        setSchedule(compiled->schedule, compiled->topo);
}

void
ProfileCollector::setSchedule(const NetworkSchedule &sched,
                              const Topology &topo)
{
    analysis_ = analyzeSchedule(sched, topo);
}

void
ProfileCollector::addExtra(const std::string &key, double value)
{
    extras_.emplace_back(key, value);
}

void
ProfileCollector::setPhases(Json phases)
{
    phases_ = std::move(phases);
}

Json
ProfileCollector::report() const
{
    const ProfilerSink &s = sink_;
    Json root = documentHead(kProfileSchema);

    const double spanPs = double(s.spanPs());
    const std::uint64_t spanCycles =
        std::uint64_t(std::llround(spanPs / kCorePeriodPs));
    root.set("cycles", spanCycles);

    {
        Json sim = Json::object();
        sim.set("span_ps", s.spanPs());
        sim.set("span_cycles", spanCycles);
        sim.set("events", s.events());
        root.set("sim", std::move(sim));
    }

    {
        const std::uint64_t flits = s.totalFlits();
        const std::uint64_t bytes = flits * kVectorBytes;
        Json tp = Json::object();
        tp.set("flits", flits);
        tp.set("bytes", bytes);
        // Payload bytes moved per wall-clock second of simulated time.
        tp.set("gbytes_per_sec",
               spanPs > 0 ? double(bytes) / spanPs * 1000.0 : 0.0);
        root.set("throughput", std::move(tp));
    }

    {
        Json chips = Json::array();
        for (const auto &[id, acct] : s.chips()) {
            const double total = double(acct.totalCycles());
            Json c = Json::object();
            c.set("id", id);
            c.set("total_cycles", acct.totalCycles());
            c.set("instrs", acct.instrs);
            c.set("halted", acct.halted);
            Json busy = Json::object();
            Json util = Json::object();
            for (unsigned u = 0; u < kNumFuncUnits; ++u) {
                const char *name = funcUnitName(FuncUnit(u));
                busy.set(name, acct.busy[u]);
                util.set(name, frac(double(acct.busy[u]), total));
            }
            c.set("busy", std::move(busy));
            c.set("stall", acct.stall);
            c.set("idle", acct.idle);
            c.set("util", std::move(util));
            c.set("busy_frac", frac(double(acct.busyTotal()), total));
            c.set("stall_frac", frac(double(acct.stall), total));
            c.set("idle_frac", frac(double(acct.idle), total));
            chips.push(std::move(c));
        }
        root.set("chips", std::move(chips));
    }

    {
        Json links = Json::array();
        for (const auto &[id, acct] : s.links()) {
            Json l = Json::object();
            l.set("id", id);
            l.set("flits", acct.flits);
            l.set("mbes", acct.mbes);
            l.set("dropped_flits", acct.dropped);
            l.set("busy_ps", acct.busyPs);
            l.set("util", frac(double(acct.busyPs), spanPs));
            if (const Log2Histogram *h = s.queueDelay(id))
                l.set("queue_delay_ps", histogramJson(*h));
            links.push(std::move(l));
        }
        root.set("links", std::move(links));
        root.set("queue_delay_ps", histogramJson(s.queueDelayAll()));
    }

    {
        // Per-transfer cross-chip waterfalls (causal spans). The four
        // stages of every closed transfer tile its observed latency
        // exactly; "exact" records that invariant per entry so report
        // consumers need not recompute it.
        Json transfers = Json::array();
        std::size_t closed = 0, exact = 0, serialized = 0;
        for (const auto &[span, tr] : s.transfers()) {
            if (tr.closed) {
                ++closed;
                if (tr.stagesPs() == tr.totalPs())
                    ++exact;
            }
            if (serialized >= kMaxJsonTransfers)
                continue;
            ++serialized;
            Json t = Json::object();
            t.set("flow", tr.flow);
            t.set("seq", tr.seq);
            t.set("src", tr.src);
            t.set("dst", tr.dst);
            t.set("legs", tr.legs);
            t.set("open_ps", tr.openTick);
            t.set("close_ps", tr.closeTick);
            t.set("total_ps", tr.totalPs());
            t.set("serialize_ps", tr.serializePs);
            t.set("flight_ps", tr.flightPs);
            t.set("forward_ps", tr.forwardPs);
            t.set("wait_ps", tr.waitPs);
            t.set("mbes", tr.mbes);
            t.set("closed", tr.closed);
            t.set("exact", tr.closed && tr.stagesPs() == tr.totalPs());
            transfers.push(std::move(t));
        }
        root.set("transfers", std::move(transfers));
        Json sum = Json::object();
        sum.set("total", s.transfers().size());
        sum.set("closed", closed);
        sum.set("exact", exact);
        sum.set("truncated", s.transfers().size() > kMaxJsonTransfers);
        root.set("transfers_summary", std::move(sum));
    }

    {
        const HacAccount &hac = s.hac();
        Json h = Json::object();
        h.set("updates_sent", hac.updatesSent);
        h.set("adjustments", hac.adjustments);
        h.set("mean_abs_delta",
              frac(double(hac.sumAbsDelta), double(hac.adjustments)));
        h.set("max_abs_delta", hac.maxAbsDelta);
        h.set("sum_abs_step", hac.sumAbsStep);
        Json timeline = Json::array();
        for (const auto &sample : hac.timeline) {
            Json t = Json::object();
            t.set("tick", sample.tick);
            t.set("delta", sample.delta);
            t.set("step", sample.step);
            timeline.push(std::move(t));
        }
        h.set("timeline", std::move(timeline));
        root.set("hac", std::move(h));
    }

    if (analysis_) {
        const SsnAnalysis &a = *analysis_;
        Json ssn = Json::object();
        ssn.set("makespan_cycles", a.makespan);
        ssn.set("critical_path_cycles", a.criticalPathCycles);
        ssn.set("predicted_completion_cycles", a.predictedCompletionCycles);
        const bool simulated = s.recvEvents() > 0;
        const std::uint64_t simCycles =
            simulated ? std::uint64_t(std::llround(double(s.lastRecvTick()) /
                                                   kCorePeriodPs))
                      : 0;
        ssn.set("simulated", simulated);
        ssn.set("simulated_completion_cycles", simCycles);
        ssn.set("gap_cycles",
                simulated ? std::int64_t(simCycles) -
                                std::int64_t(a.predictedCompletionCycles)
                          : std::int64_t(0));
        ssn.set("hops_total", a.hopsTotal);
        ssn.set("contended_hops", a.contendedHops);
        ssn.set("contention_free", a.contentionFree);
        {
            Json slack = Json::object();
            slack.set("mean", a.hopSlack.mean());
            slack.set("max",
                      a.hopSlack.count() ? std::int64_t(a.hopSlack.max())
                                         : std::int64_t(0));
            ssn.set("hop_slack_cycles", std::move(slack));
        }
        {
            Json d = Json::object();
            d.set("start_cycle", a.startCycle);
            d.set("flight_cycles", a.flightCyclesTotal);
            d.set("forward_cycles", a.forwardCyclesTotal);
            d.set("wait_cycles", a.waitCyclesTotal);
            ssn.set("decomposition", std::move(d));
        }
        {
            Json hops = Json::array();
            const std::size_t n =
                std::min(a.criticalPath.size(), kMaxJsonPathHops);
            for (std::size_t i = 0; i < n; ++i) {
                const CritHop &ch = a.criticalPath[i];
                Json h = Json::object();
                h.set("link", ch.link);
                h.set("from", ch.from);
                h.set("flow", ch.flow);
                h.set("seq", ch.seq);
                h.set("depart", ch.depart);
                h.set("arrive", ch.arrive);
                h.set("wait", ch.wait);
                h.set("edge", critEdgeName(ch.edge));
                hops.push(std::move(h));
            }
            ssn.set("critical_path", std::move(hops));
            ssn.set("critical_path_hops", a.criticalPath.size());
            ssn.set("critical_path_truncated",
                    a.criticalPath.size() > kMaxJsonPathHops);
        }
        root.set("ssn", std::move(ssn));
    }

    if (phases_)
        root.set("phases", *phases_);

    if (!extras_.empty()) {
        Json extra = Json::object();
        for (const auto &[key, value] : extras_)
            extra.set(key, value);
        root.set("extra", std::move(extra));
    }
    return root;
}

namespace {

std::string
pct(const Json &fraction)
{
    return Table::num(fraction.number() * 100.0, 1) + "%";
}

} // namespace

std::string
renderProfileSummary(const Json &report, unsigned top_k, const Json *host)
{
    std::string out;
    const std::string bench =
        report["bench"].isNull() ? "?" : report["bench"].str();
    out += format("== tsm profile: {} ==\n", bench);
    if (report.has("seed"))
        out += format("seed: {}\n", report["seed"].integer());
    const Json &sim = report["sim"];
    if (!sim.isNull()) {
        out += format("span: {} cycles ({} us), {} trace events\n",
                      sim["span_cycles"].integer(),
                      Table::num(psToUs(sim["span_ps"].number()), 2),
                      sim["events"].integer());
    }
    const Json &tp = report["throughput"];
    if (!tp.isNull()) {
        out += format("traffic: {} flits, {} bytes, {} GB/s\n",
                      tp["flits"].integer(), tp["bytes"].integer(),
                      Table::num(tp["gbytes_per_sec"].number(), 2));
    }

    const Json &chips = report["chips"];
    if (!chips.isNull() && chips.size() > 0) {
        out += "\nper-chip functional-unit utilization:\n";
        Table t({"chip", "cycles", "MXM", "VXM", "SXM", "MEM", "stall",
                 "idle"});
        for (const Json &c : chips.items()) {
            t.addRow({Table::num(c["id"].integer()),
                      Table::num(c["total_cycles"].integer()),
                      pct(c["util"]["MXM"]), pct(c["util"]["VXM"]),
                      pct(c["util"]["SXM"]), pct(c["util"]["MEM"]),
                      pct(c["stall_frac"]), pct(c["idle_frac"])});
        }
        out += t.ascii();
    }

    const Json &links = report["links"];
    if (!links.isNull() && links.size() > 0) {
        // Busiest links first.
        std::vector<const Json *> sorted;
        for (const Json &l : links.items())
            sorted.push_back(&l);
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const Json *a, const Json *b) {
                             return (*a)["util"].number() >
                                    (*b)["util"].number();
                         });
        if (sorted.size() > top_k)
            sorted.resize(top_k);
        out += format("\ntop {} links by utilization (of {}):\n",
                      sorted.size(), links.size());
        Table t({"link", "flits", "util", "qdelay p50", "p95", "p99",
                 "mbes", "dropped"});
        for (const Json *l : sorted) {
            const Json &q = (*l)["queue_delay_ps"];
            auto qcell = [&](const char *key) {
                return q.isNull() ? std::string("-")
                                  : Table::num(q[key].integer());
            };
            t.addRow({Table::num((*l)["id"].integer()),
                      Table::num((*l)["flits"].integer()), pct((*l)["util"]),
                      qcell("p50"), qcell("p95"), qcell("p99"),
                      Table::num((*l)["mbes"].integer()),
                      (*l)["dropped_flits"].isNull()
                          ? std::string("-")
                          : Table::num((*l)["dropped_flits"].integer())});
        }
        out += t.ascii();
    }

    const Json &transfers = report["transfers"];
    const Json &tsum = report["transfers_summary"];
    if (!transfers.isNull() && transfers.size() > 0) {
        // Slowest transfers first: the waterfall names which stage of
        // which vector journey dominates the communication time.
        std::vector<const Json *> sorted;
        for (const Json &t : transfers.items())
            if (t["closed"].boolean())
                sorted.push_back(&t);
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const Json *a, const Json *b) {
                             return (*a)["total_ps"].integer() >
                                    (*b)["total_ps"].integer();
                         });
        if (sorted.size() > top_k)
            sorted.resize(top_k);
        if (!sorted.empty()) {
            out += format("\ntop {} transfers by latency (of {} closed",
                          sorted.size(), tsum["closed"].integer());
            if (!tsum.isNull())
                out += format(", {} stage-exact", tsum["exact"].integer());
            out += "):\n";
            Table t({"flow:seq", "route", "legs", "serialize", "flight",
                     "forward", "wait", "total ps"});
            for (const Json *tr : sorted) {
                t.addRow({format("{}:{}", (*tr)["flow"].integer(),
                                 (*tr)["seq"].integer()),
                          format("{}->{}", (*tr)["src"].integer(),
                                 (*tr)["dst"].integer()),
                          Table::num((*tr)["legs"].integer()),
                          Table::num((*tr)["serialize_ps"].integer()),
                          Table::num((*tr)["flight_ps"].integer()),
                          Table::num((*tr)["forward_ps"].integer()),
                          Table::num((*tr)["wait_ps"].integer()),
                          Table::num((*tr)["total_ps"].integer())});
            }
            out += t.ascii();
        }
    }

    const Json &phases = report["phases"];
    if (!phases.isNull() && phases.size() > 0)
        out += "\n" + renderPhaseTable(phases);

    const Json &hac = report["hac"];
    if (!hac.isNull() && hac["adjustments"].integer() > 0) {
        out += format("\nhac: {} updates sent, {} adjustments, mean |drift| "
                      "{} cycles, max {}\n",
                      hac["updates_sent"].integer(),
                      hac["adjustments"].integer(),
                      Table::num(hac["mean_abs_delta"].number(), 2),
                      hac["max_abs_delta"].integer());
    }

    const Json &ssn = report["ssn"];
    if (!ssn.isNull()) {
        out += format("\nssn schedule: makespan {} cycles, {} hops, {} "
                      "contended{}\n",
                      ssn["makespan_cycles"].integer(),
                      ssn["hops_total"].integer(),
                      ssn["contended_hops"].integer(),
                      ssn["contention_free"].boolean()
                          ? " (contention-free)"
                          : "");
        out += format("predicted completion: {} cycles",
                      ssn["predicted_completion_cycles"].integer());
        if (ssn["simulated"].boolean()) {
            const std::int64_t gap = ssn["gap_cycles"].integer();
            out += format(", simulated: {} (gap {}{})",
                          ssn["simulated_completion_cycles"].integer(),
                          gap > 0 ? "+" : "", gap);
        }
        out += "\n";
        const Json &d = ssn["decomposition"];
        if (!d.isNull()) {
            out += format("critical path: start {} + flight {} + forward {} "
                          "+ wait {} = {} cycles\n",
                          d["start_cycle"].integer(),
                          d["flight_cycles"].integer(),
                          d["forward_cycles"].integer(),
                          d["wait_cycles"].integer(),
                          ssn["critical_path_cycles"].integer());
        }
        const Json &hops = ssn["critical_path"];
        if (!hops.isNull() && hops.size() > 0) {
            const std::size_t shown =
                std::min<std::size_t>(hops.size(), 20);
            out += format("critical path hops ({} of {}):\n", shown,
                          ssn["critical_path_hops"].integer());
            Table t({"#", "edge", "flow:seq", "link", "from", "depart",
                     "arrive", "wait"});
            for (std::size_t i = 0; i < shown; ++i) {
                const Json &h = hops.at(i);
                t.addRow({Table::num(std::uint64_t(i)),
                          h["edge"].str(),
                          format("{}:{}", h["flow"].integer(),
                                 h["seq"].integer()),
                          Table::num(h["link"].integer()),
                          Table::num(h["from"].integer()),
                          Table::num(h["depart"].integer()),
                          Table::num(h["arrive"].integer()),
                          Table::num(h["wait"].integer())});
            }
            out += t.ascii();
        }
    }
    out += "\n" + renderHostRateLine(host);
    return out;
}

bool
writeProfileReport(const std::string &path, const Json &report,
                   std::string *error)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) {
        if (error)
            *error = format("cannot open {} for writing", path);
        return false;
    }
    f << report.dump(2) << "\n";
    f.flush();
    if (!f) {
        if (error)
            *error = format("write to {} failed", path);
        return false;
    }
    return true;
}

Json
readDocument(const std::string &path, const char *schema,
             std::string *error)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        *error = "cannot open " + path;
        return Json();
    }
    std::ostringstream text;
    text << f.rdbuf();
    std::string why;
    Json doc = Json::parse(text.str(), &why);
    if (doc.isNull()) {
        *error = path + ": " + why;
        return Json();
    }
    if (schema && (doc["schema"].kind() != Json::Kind::String ||
                   doc["schema"].str() != schema)) {
        *error = path + ": not a " + schema + " document";
        return Json();
    }
    return doc;
}

} // namespace tsm
