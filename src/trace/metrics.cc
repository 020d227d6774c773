#include "trace/metrics.hh"

namespace tsm {

std::uint64_t &
MetricsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

Accumulator &
MetricsRegistry::accumulator(const std::string &name)
{
    return accums_[name];
}

const Accumulator *
MetricsRegistry::findAccumulator(const std::string &name) const
{
    auto it = accums_.find(name);
    return it == accums_.end() ? nullptr : &it->second;
}

void
MetricsRegistry::clear()
{
    counters_.clear();
    accums_.clear();
}

Table
MetricsRegistry::table() const
{
    Table t({"metric", "count", "mean", "min", "p50", "p95", "p99", "max",
             "sum"});
    for (const auto &[name, value] : counters_)
        t.addRow({name, Table::num(value), "", "", "", "", "", "", ""});
    for (const auto &[name, acc] : accums_) {
        if (acc.count() == 0) {
            t.addRow({name, "0", "", "", "", "", "", "", ""});
            continue;
        }
        t.addRow({name, Table::num(acc.count()), Table::num(acc.mean(), 3),
                  Table::num(acc.min(), 3), "", "", "",
                  Table::num(acc.max(), 3), Table::num(acc.sum(), 3)});
    }
    return t;
}

std::string
MetricsRegistry::report() const
{
    return table().ascii();
}

void
MetricsSink::event(const TraceEvent &ev)
{
    std::string key = traceCatName(ev.cat);
    key += '.';
    key += traceOpName(ev.op);
    ++reg_.counter(key);
    if (ev.dur > 0) {
        key += ".us";
        reg_.accumulator(key).add(psToUs(double(ev.dur)));
    }
}

} // namespace tsm
