#include "scenario/runner.hh"

#include <sstream>

#include "common/format.hh"
#include "hostprof/hostprof.hh"
#include "prof/blame.hh"
#include "prof/lanes.hh"
#include "runtime/machine.hh"
#include "trace/journal.hh"

namespace tsm {

ScenarioRunResult
runScenario(TraceSession &session, const Scenario &scenario,
            const ScenarioOverrides &overrides)
{
    ScenarioRunResult result;
    std::optional<CompiledScenario> compiled =
        compileScenario(scenario, &result.error);
    if (!compiled)
        return result;
    result.compiled = std::move(*compiled);

    Machine machine(result.compiled, overrides.seed.value_or(scenario.seed),
                    overrides.mbe.value_or(scenario.mbe));
    machine.run(session.observers(), scenario.name, session.hostprof());
    result.flitsDelivered = machine.net().totalFlits();
    return result;
}

ScenarioRunResult
runScenarioFile(TraceSession &session, const std::string &path,
                const ScenarioOverrides &overrides)
{
    Scenario scenario;
    ScenarioRunResult result;
    if (!loadScenarioFile(path, scenario, &result.error))
        return result;
    return runScenario(session, scenario, overrides);
}

bool
ScenarioExecution::allSpansClosed() const
{
    for (const auto &[span, record] : transfers) {
        (void)span;
        if (!record.closed)
            return false;
    }
    return true;
}

bool
ScenarioExecution::waterfallsExact() const
{
    if (transfers.size() != expectedSpans)
        return false;
    for (const auto &[span, record] : transfers) {
        (void)span;
        if (!record.closed || record.stagesPs() != record.totalPs())
            return false;
    }
    return true;
}

bool
ScenarioExecution::blameExact(std::string *why) const
{
    if (!checkBlameExactness(blame, why))
        return false;
    // Reconcile per-link blamed waits against the profiler's
    // independently kept queue-delay histograms: same pairing rule,
    // different bookkeeping, so any drift is a real bug.
    std::map<LinkId, Tick> blamed;
    if (blame["links"].kind() == Json::Kind::Array)
        for (const Json &l : blame["links"].items())
            blamed[LinkId(l["id"].integer())] =
                Tick(l["wait_ps"].integer());
    for (const auto &[link, ps] : linkQueueDelayPs) {
        const auto it = blamed.find(link);
        const Tick got = it == blamed.end() ? 0 : it->second;
        if (got != ps) {
            if (why)
                *why = format("link {}: blamed wait {} ps != profiler "
                              "queue delay {} ps",
                              link, got, ps);
            return false;
        }
    }
    for (const auto &[link, ps] : blamed) {
        if (ps != 0 && !linkQueueDelayPs.count(link)) {
            if (why)
                *why = format("link {}: blame names {} ps the profiler "
                              "never saw",
                              link, ps);
            return false;
        }
    }
    return true;
}

bool
ScenarioExecution::lanesReconcile(std::string *why) const
{
    return checkLanesInvariants(lanes, why);
}

ScenarioExecution
executeScenario(const Scenario &scenario,
                const ScenarioOverrides &overrides, HostProfiler *hostprof)
{
    ScenarioExecution exec;
    std::ostringstream journalText;
    JournalSink journal(journalText);
    ProfilerSink profiler;
    BlameCollector blame;
    LaneCollector lanes;
    std::vector<Observer *> observers = {&journal, &profiler, &blame,
                                         &lanes};
    if (hostprof)
        observers.push_back(hostprof);

    // The compiled scenario and the machine are released before the
    // documents are built, which is when the observers hold the most.
    {
        const std::optional<CompiledScenario> compiled =
            compileScenario(scenario, &exec.error);
        if (!compiled)
            return exec;
        Machine machine(*compiled, overrides.seed.value_or(scenario.seed),
                        overrides.mbe.value_or(scenario.mbe));
        machine.run(observers, scenario.name, hostprof);
        exec.flitsDelivered = machine.net().totalFlits();
        exec.makespan = compiled->schedule.makespan;
        for (const TensorTransfer &t : compiled->lowered.transfers)
            exec.expectedSpans += t.vectors;
    }
    for (Observer *o : observers)
        o->finish();

    exec.journal = journalText.str();
    exec.transfers = profiler.transfers();
    exec.blame = blame.report();
    exec.blameText = exec.blame.dump(2);
    exec.lanes = lanes.report();
    exec.lanesText = exec.lanes.dump(2);
    for (const auto &[link, acct] : profiler.links()) {
        (void)acct;
        if (const Log2Histogram *h = profiler.queueDelay(link))
            exec.linkQueueDelayPs[link] = Tick(h->sum());
    }
    return exec;
}

} // namespace tsm
