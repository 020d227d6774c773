/**
 * @file
 * The one interface every run watcher implements: onCompiled (the
 * run's identity and what was compiled, before the stream starts), an
 * optional trace sink, and finish (end of stream). Every TraceSink is
 * an Observer whose sink is itself.
 */

#ifndef TSM_TRACE_OBSERVER_HH
#define TSM_TRACE_OBSERVER_HH

#include <cstdint>
#include <string>
#include <utility>

#include "common/json.hh"

namespace tsm {

struct CompiledScenario;
class TraceSink;

/** Who a run is: the identity stamped into every document. */
struct RunIdentity
{
    std::string bench = "unknown";
    std::uint64_t seed = 0;
};

class Observer
{
  public:
    virtual ~Observer() = default;

    /**
     * Before the stream starts: record the run's identity. `compiled`
     * is what the run executes, or nullptr when only the identity is
     * known; collectors override this to take the schedule.
     */
    virtual void
    onCompiled(const RunIdentity &run, const CompiledScenario *compiled)
    {
        (void)compiled;
        identity_ = run;
        hasSeed_ = true;
    }

    /** The sink to attach for the run, or nullptr for none. */
    virtual TraceSink *traceSink() { return nullptr; }

    /** End of stream (flush/close); may be called more than once. */
    virtual void finish() {}

    void setBench(std::string bench) { identity_.bench = std::move(bench); }
    void
    setSeed(std::uint64_t seed)
    {
        identity_.seed = seed;
        hasSeed_ = true;
    }

    const RunIdentity &identity() const { return identity_; }

  protected:
    /** A document opening with `schema`, the bench and (once set) seed. */
    Json
    documentHead(const char *schema) const
    {
        Json doc = Json::object();
        doc.set("schema", schema);
        doc.set("bench", identity_.bench);
        if (hasSeed_)
            doc.set("seed", identity_.seed);
        return doc;
    }

  private:
    RunIdentity identity_;
    bool hasSeed_ = false;
};

} // namespace tsm

#endif // TSM_TRACE_OBSERVER_HH
