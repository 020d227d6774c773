/**
 * @file
 * End-of-run metrics: a registry of named counters and accumulators
 * (common/stats.hh), plus a TraceSink that folds the trace stream into
 * one — every "<cat>.<name>" event becomes a count, and events with a
 * duration also feed a "<cat>.<name>.us" accumulator. Queryable
 * programmatically and printable as an aligned table.
 */

#ifndef TSM_TRACE_METRICS_HH
#define TSM_TRACE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hh"
#include "common/table.hh"
#include "trace/trace.hh"

namespace tsm {

/** Named counters and sample accumulators, sorted by name. */
class MetricsRegistry
{
  public:
    /** The counter named `name`, created at zero on first use. */
    std::uint64_t &counter(const std::string &name);

    /** Value of a counter, 0 if it was never touched. */
    std::uint64_t counterValue(const std::string &name) const;

    /** The accumulator named `name`, created empty on first use. */
    Accumulator &accumulator(const std::string &name);

    /** The accumulator named `name`, or nullptr if absent. */
    const Accumulator *findAccumulator(const std::string &name) const;

    bool empty() const
    {
        return counters_.empty() && accums_.empty();
    }
    std::size_t numCounters() const { return counters_.size(); }
    std::size_t numAccumulators() const { return accums_.size(); }
    void clear();

    /**
     * Render everything as one table: counters as (name, count) rows
     * and accumulators as (name, count, mean, min, max, sum) rows. The
     * percentile columns stay in the header but are always empty.
     */
    Table table() const;

    /** table().ascii() convenience. */
    std::string report() const;

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Accumulator> accums_;
};

/** Folds trace events into a MetricsRegistry it owns. */
class MetricsSink : public TraceSink
{
  public:
    explicit MetricsSink(unsigned mask = kTraceAllCats) : mask_(mask) {}

    unsigned categoryMask() const override { return mask_; }
    void event(const TraceEvent &ev) override;

    MetricsRegistry &registry() { return reg_; }
    const MetricsRegistry &registry() const { return reg_; }

  private:
    MetricsRegistry reg_;
    unsigned mask_;
};

} // namespace tsm

#endif // TSM_TRACE_METRICS_HH
