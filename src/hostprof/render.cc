/**
 * @file
 * ASCII rendering of `tsm-hostprof-v1` documents: the core of
 * tools/tsm_hotspot and the wall-clock footer line the profile
 * summaries (prof/report.cc renderProfileSummary, tools/tsm_top)
 * append below their simulated-time sections.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/format.hh"
#include "common/table.hh"
#include "hostprof/hostprof.hh"
#include "telemetry/render.hh"

namespace tsm {

namespace {

/** "48123" -> "48.1k", "2512345" -> "2.5M". */
std::string
humanCount(double v)
{
    if (v >= 1e9)
        return Table::num(v / 1e9, 1) + "G";
    if (v >= 1e6)
        return Table::num(v / 1e6, 1) + "M";
    if (v >= 1e3)
        return Table::num(v / 1e3, 1) + "k";
    return Table::num(v, 0);
}

std::string
humanNs(double ns)
{
    if (ns >= 1e9)
        return Table::num(ns / 1e9, 2) + " s";
    if (ns >= 1e6)
        return Table::num(ns / 1e6, 2) + " ms";
    if (ns >= 1e3)
        return Table::num(ns / 1e3, 2) + " us";
    return Table::num(ns, 0) + " ns";
}

/**
 * Downsample `values` to at most `cols` columns, shading each column
 * by its bucket maximum normalized to the overall maximum.
 */
std::string
sparkline(const std::vector<double> &values, unsigned cols)
{
    if (values.empty())
        return "";
    double peak = 0.0;
    for (double v : values)
        peak = std::max(peak, v);
    const std::size_t buckets =
        std::min<std::size_t>(cols ? cols : 1, values.size());
    std::string out;
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t lo = b * values.size() / buckets;
        const std::size_t hi =
            std::max(lo + 1, (b + 1) * values.size() / buckets);
        double m = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            m = std::max(m, values[i]);
        out += shadeChar(peak > 0 ? m / peak : 0.0);
    }
    return out;
}

} // namespace

std::string
renderHostRateLine(const Json *hostprof)
{
    if (!hostprof || hostprof->isNull() ||
        (*hostprof)["events"].isNull()) {
        return "host: n/a (run with --hostprof for wall-clock "
               "attribution)\n";
    }
    const Json &doc = *hostprof;
    const double events = doc["events"].number();
    const double wallNs = doc["wall_ns"].number();
    const Json &rate = doc["sim_rate"];
    return format(
        "host: {} events in {} wall — {} events/s, {} cycles/s, "
        "slowdown {}x\n",
        humanCount(events), humanNs(wallNs),
        humanCount(rate["events_per_sec"].number()),
        humanCount(rate["cycles_per_sec"].number()),
        Table::num(rate["slowdown"].number(), 1));
}

std::string
renderHostprof(const Json &doc, unsigned topK)
{
    std::string out;
    out += format("=== hostprof: {} (seed {}) ===\n",
                  doc["bench"].isNull() ? "?" : doc["bench"].str(),
                  doc["seed"].isNull()
                      ? std::string("-")
                      : Table::num(doc["seed"].number(), 0));
    out += renderHostRateLine(&doc);

    const double wallNs = doc["wall_ns"].number();
    const Json &sections = doc["sections"];
    out += format("sections: queue {} ({}%), dispatch {} ({}%)\n",
                  humanNs(sections["queue_ns"].number()),
                  Table::num(wallNs > 0 ? sections["queue_ns"].number() /
                                              wallNs * 100.0
                                        : 0.0,
                             1),
                  humanNs(sections["dispatch_ns"].number()),
                  Table::num(wallNs > 0
                                 ? sections["dispatch_ns"].number() /
                                       wallNs * 100.0
                                 : 0.0,
                             1));

    // Top event kinds by wall time.
    struct KindRow
    {
        std::string name;
        double events, ns, allocs;
    };
    std::vector<KindRow> rows;
    for (const Json &k : doc["kinds"].items()) {
        if (k["events"].number() == 0 && k["wall_ns"].number() == 0)
            continue;
        rows.push_back({k["kind"].str(), k["events"].number(),
                        k["wall_ns"].number(), k["allocs"].number()});
    }
    std::sort(rows.begin(), rows.end(),
              [](const KindRow &a, const KindRow &b) {
                  return a.ns != b.ns ? a.ns > b.ns
                                      : a.name < b.name;
              });
    if (rows.size() > topK)
        rows.resize(topK);
    Table table({"kind", "events", "wall", "% wall", "ns/event",
                 "allocs/event", ""});
    for (const KindRow &r : rows) {
        const double frac = wallNs > 0 ? r.ns / wallNs : 0.0;
        std::string bar;
        for (unsigned i = 0; i < unsigned(frac * 20.0 + 0.5); ++i)
            bar += '#';
        table.addRow({r.name, humanCount(r.events), humanNs(r.ns),
                      Table::num(frac * 100.0, 1),
                      Table::num(r.events > 0 ? r.ns / r.events : 0.0, 0),
                      Table::num(r.events > 0 ? r.allocs / r.events : 0.0,
                                 2),
                      bar});
    }
    out += table.ascii();

    const Json &q = doc["queue"];
    out += format(
        "queue: {} inserts, depth high-water {}, {} insert batches "
        "(max {}/dispatch)",
        humanCount(q["inserts"].number()), Table::num(q["max_depth"].number(), 0),
        humanCount(q["batches"].number()),
        Table::num(q["max_batch"].number(), 0));
    if (q["sampled_inserts"].number() > 0)
        out += format(", sampled queue insert {} ns",
                      Table::num(q["sampled_insert_ns"].number() /
                                     q["sampled_inserts"].number(),
                                 0));
    out += "\n";

    const Json &alloc = doc["allocs"];
    if (!alloc.isNull()) {
        if (alloc["hook"].boolean())
            out += format("allocs: {} on the event path ({} per event, "
                          "{} bytes)\n",
                          humanCount(alloc["event_path"].number()),
                          Table::num(alloc["per_event"].number(), 2),
                          humanCount(alloc["bytes"].number()));
        else
            out += "allocs: n/a (alloc hook compiled out)\n";
    }

    // Per-window trends. Depth uses the sampled close-of-window depth;
    // rate normalizes events per window to the busiest window.
    const Json &windows = doc["windows"];
    if (windows.size() >= 2) {
        std::vector<double> depth, rate;
        for (const Json &w : windows.items()) {
            depth.push_back(w["depth"].number());
            rate.push_back(w["events"].number());
        }
        out += format("queue depth |{}|\n", sparkline(depth, 64));
        out += format("sim rate    |{}| ({} windows of {})\n",
                      sparkline(rate, 64),
                      std::uint64_t(windows.size()),
                      humanNs(doc["window_ns"].number()));
    }
    if (doc["windows_dropped"].number() > 0)
        out += format("({} windows dropped beyond the {}-window cap)\n",
                      Table::num(doc["windows_dropped"].number(), 0),
                      std::uint64_t(kHostprofMaxWindows));
    return out;
}

} // namespace tsm
