/**
 * @file
 * perfbench — the repository benchmark.
 *
 * Three single-threaded closed-loop workloads; each iteration starts
 * when the previous one has finished:
 *
 *   bert256        the 256-TSP fig18 staged BERT pipeline, headless:
 *                  topology -> lower -> schedule -> programs -> chips
 *                  -> EventQueue::run;
 *   hac-sync       256-TSP bring-up with drifting clocks and link
 *                  jitter: TsmSystem build -> synchronize() over a
 *                  fixed window -> launchAligned -> runToCompletion;
 *   fuzz-observed  the tsm_fuzz loop over a seeded pool of small
 *                  contention-biased scenarios: generate -> validate
 *                  -> dump/parse round-trip -> executeScenario (journal,
 *                  profiler, blame and lanes sinks attached) -> the
 *                  exactness checks.
 *
 * `--trace 0` runs the loop with no instrumentation and prints the
 * end-to-end metrics. `--trace 1` times every layer from outside, by
 * wrapping the calls into its public functions, attaches the
 * HostProfiler to split simulation time into queue and dispatch time,
 * attaches each analysis sink alone to price it against the headless
 * run on the same input, and prints the per-layer metrics. Every
 * iteration's output is checked; the last line of stdout is the JSON
 * result. README.md describes the workloads and metrics.
 *
 *   perfbench --workload bert256 --seed 1 --seconds 12 --trace 0 \
 *             --scenario perfbench/fig18_bert_scaling_256.json
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "hostprof/hostprof.hh"
#include "net/network.hh"
#include "prof/blame.hh"
#include "prof/lanes.hh"
#include "prof/profiler.hh"
#include "runtime/system.hh"
#include "scenario/generator.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "ssn/schedule_trace.hh"
#include "trace/journal.hh"

using namespace tsm;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Nearest-rank quantile of `v` (q in [0, 1]); `v` must be non-empty. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * double(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : std::size_t(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// @name Layer spans
/// @{

/**
 * Accumulated wall time per layer, keyed by the per-layer metric
 * name. A null Spans* means tracing is off: timed() then calls
 * straight through without reading the clock.
 */
using Spans = std::map<std::string, double>;

template <class F>
auto
timed(Spans *spans, const char *layer, F &&f)
{
    if (!spans)
        return f();
    const auto t0 = Clock::now();
    auto result = f();
    (*spans)[layer] += msSince(t0);
    return result;
}

/// @}

/// @name Simulated work done by one run, for the checks
/// @{

struct Work
{
    std::uint64_t events = 0;
    std::uint64_t flits = 0;
    std::uint64_t instrs = 0;
    Cycle makespan = 0;

    bool
    sameAs(const Work &o) const
    {
        return events == o.events && flits == o.flits &&
               instrs == o.instrs && makespan == o.makespan;
    }
};

/// @}

/// @name The headless scenario pipeline
/// @{

/** Observers attached to one pipeline run; all optional, borrowed. */
struct Observers
{
    TraceSink *sink = nullptr;
    BlameCollector *blame = nullptr;
    LaneCollector *lanes = nullptr;
    HostProfiler *hostprof = nullptr;
};

struct PipelineRun
{
    Work work;
    std::uint64_t vectors = 0;
    std::uint64_t hops = 0;
    bool allHalted = false;
    bool scheduleValid = true;

    /** False when the schedule oversubscribes a chip's buffering. */
    bool programsOk = false;
    std::string programsError;

    /** Host time of the run, schedule validation excluded. */
    double ms = 0.0;
};

/**
 * Run `sc` the way runScheduledScenario does — topology, lowering,
 * SSN schedule, network, chips, per-chip programs, event loop — with
 * each call into a layer wrapped in a span. Programs are built with
 * tryBuildPrograms (what buildPrograms wraps), so traffic the chips
 * cannot buffer is reported instead of panicking. `validate` runs
 * validateSchedule (untimed) before the machine is torn down.
 */
PipelineRun
runPipeline(const Scenario &sc, std::uint64_t seed, Spans *spans,
            const Observers &obs = {}, bool validate = false)
{
    PipelineRun r;
    double checkMs = 0.0;
    const auto t0 = Clock::now();
    {
        const Topology topo = timed(spans, "net.topology_ms",
                                    [&] { return sc.topology.build(); });
        const LoweredScenario lowered =
            timed(spans, "scenario.lower_ms",
                  [&] { return lowerScenario(sc, topo); });
        const NetworkSchedule sched =
            timed(spans, "ssn.schedule_ms", [&] {
                SsnScheduler scheduler(topo, sc.ssn);
                return scheduler.schedule(lowered.transfers);
            });
        if (obs.lanes)
            obs.lanes->setSchedule(sched, topo);

        EventQueue eq;
        eq.setHostProfiler(obs.hostprof);
        std::vector<TraceSink *> sinks;
        if (obs.sink)
            sinks.push_back(obs.sink);
        if (obs.blame)
            sinks.push_back(&obs.blame->sink());
        if (obs.lanes)
            sinks.push_back(&obs.lanes->sink());
        for (TraceSink *s : sinks)
            eq.tracer().addSink(s);
        traceSchedule(eq.tracer(), sched);

        auto net = timed(spans, "net.topology_ms", [&] {
            auto n = std::make_unique<Network>(topo, eq, Rng(seed));
            if (sc.mbe > 0.0) {
                ErrorModel errors;
                errors.mbePerVector = sc.mbe;
                n->setErrorModel(errors);
            }
            return n;
        });
        auto chips = timed(spans, "arch.chips_ms", [&] {
            std::vector<std::unique_ptr<TspChip>> c;
            for (TspId t = 0; t < topo.numTsps(); ++t)
                c.push_back(
                    std::make_unique<TspChip>(t, *net, DriftClock()));
            return c;
        });
        ProgramSet programs;
        r.programsOk = timed(spans, "ssn.programs_ms", [&] {
            return tryBuildPrograms(sched, topo, {}, {}, programs,
                                    &r.programsError);
        });
        if (r.programsOk) {
            timed(spans, "arch.chips_ms", [&] {
                for (TspId t = 0; t < topo.numTsps(); ++t) {
                    chips[t]->setStream(0, makeVec(Vec(1.0f)));
                    programs.byChip[t].emitHalt();
                    chips[t]->load(std::move(programs.byChip[t]));
                    chips[t]->start(0);
                }
                return true;
            });
            r.work.events =
                timed(spans, "sim.run_ms", [&] { return eq.run(); });
        }
        for (TraceSink *s : sinks) {
            eq.tracer().removeSink(s);
            s->finish();
        }
        eq.setHostProfiler(nullptr);
        if (obs.blame)
            obs.blame->setSchedule(sched, topo);

        r.work.flits = net->totalFlits();
        r.work.makespan = sched.makespan;
        r.vectors = sched.vectors.size();
        r.allHalted = true;
        for (const auto &chip : chips) {
            r.work.instrs += chip->stats().instrsExecuted;
            r.allHalted = r.allHalted && chip->halted();
        }
        for (const ScheduledVector &v : sched.vectors)
            r.hops += v.hops.size();
        if (validate) {
            const auto c0 = Clock::now();
            r.scheduleValid = validateSchedule(sched, topo).ok;
            checkMs = msSince(c0);
        }
    }
    r.ms = msSince(t0) - checkMs;
    return r;
}

/**
 * Reject inputs the machine cannot run before any timing: the
 * scenario must validate, its schedule must fit the chips' buffering
 * (buildPrograms would panic on oversubscribed traffic), and a
 * headless dry run must halt every chip. `ref` receives the dry run:
 * the exact simulated work every later run of `sc` must repeat.
 */
bool
guardScenario(const Scenario &sc, std::uint64_t seed, PipelineRun *ref,
              std::string *why)
{
    if (!validateScenario(sc, why))
        return false;
    *ref = runPipeline(sc, seed, nullptr, {}, true);
    if (!ref->programsOk) {
        *why = sc.name + ": " + ref->programsError;
        return false;
    }
    if (!ref->allHalted || !ref->scheduleValid) {
        *why = sc.name + ": dry run did not halt cleanly";
        return false;
    }
    return true;
}

/// @}

/// @name Trace-mode accounting
/// @{

/** Host-profiler totals summed over profiled runs. */
struct HostprofTotals
{
    std::uint64_t events = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t queueNs = 0;
    std::uint64_t allocs = 0;
    std::uint64_t maxDepth = 0;
    std::uint64_t kindEvents[kNumEventKinds] = {};
    std::uint64_t kindNs[kNumEventKinds] = {};

    void
    add(const HostProfiler &hp)
    {
        events += hp.events();
        wallNs += hp.wallNs();
        queueNs += hp.queueNs();
        maxDepth = std::max(maxDepth, hp.queue().maxDepth);
        for (unsigned k = 0; k < kNumEventKinds; ++k) {
            const HostKindStats &st = hp.kind(EventKind(k));
            allocs += st.allocs;
            kindEvents[k] += st.events;
            kindNs[k] += st.wallNs;
        }
    }

    double
    nsPerEvent(EventKind k) const
    {
        const unsigned i = unsigned(k);
        return kindEvents[i] ? double(kindNs[i]) / double(kindEvents[i])
                             : 0.0;
    }
};

/** What one traced run accumulates before it becomes metrics. */
struct TraceAcc
{
    Spans spans; ///< layers inside the span-timed iterations, summed
    Spans side;  ///< layers timed on the same input outside the loop
    std::uint64_t rounds = 0; ///< rounds completed
    std::uint64_t failed = 0; ///< rounds with any failed check

    std::vector<double> untracedMs; ///< paired with tracedMs
    std::vector<double> tracedMs;

    /** Sink name -> summed (with-sink minus headless) ms. */
    std::map<std::string, double> sinkDeltaMs;
    double journalBytes = 0.0;

    HostprofTotals hostprof;

    /** Count metrics, summed over the first kCountRounds rounds. */
    std::map<std::string, double> counts;
    std::uint64_t countedRounds = 0;
};

/** Rounds whose counts are averaged, so counts repeat exactly. */
constexpr std::uint64_t kCountRounds = 16;

/// @}

/// @name Checks and side measurements shared by the workloads
/// @{

/** Host milliseconds `f()` takes. */
template <class F>
double
timedMs(F &&f)
{
    const auto t0 = Clock::now();
    f();
    return msSince(t0);
}

/** dump -> parse -> dump is byte-stable (the fuzzer's round-trip). */
bool
roundTrips(const Scenario &sc)
{
    const std::string text = dumpScenario(sc);
    Scenario reparsed;
    std::string why;
    return parseScenario(text, reparsed, &why) &&
           dumpScenario(reparsed) == text;
}

/** The fuzzer's exactness checks on an observed execution. */
bool
observedExact(const ScenarioExecution &exec)
{
    return exec.allSpansClosed() && exec.waterfallsExact() &&
           exec.blameExact() && exec.lanesReconcile();
}

/**
 * Run `sc` once per analysis sink, each attached alone, and charge
 * each sink its host time minus `headlessMs`, the headless run's time
 * on the same input. The simulated work must stay `headless`.
 */
bool
priceSinks(const Scenario &sc, std::uint64_t seed, const Work &headless,
           double headlessMs, TraceAcc &acc)
{
    bool ok = true;
    const auto charge = [&](const char *name, double ms,
                            const PipelineRun &run) {
        acc.sinkDeltaMs[name] += ms - headlessMs;
        ok = ok && run.work.sameAs(headless);
    };
    {
        std::ostringstream text;
        JournalSink journal(text);
        Observers obs;
        obs.sink = &journal;
        const auto t0 = Clock::now();
        const PipelineRun run = runPipeline(sc, seed, nullptr, obs);
        const std::string bytes = text.str();
        charge("trace.journal_ms", msSince(t0), run);
        acc.journalBytes += double(bytes.size());
    }
    {
        ProfilerSink profiler;
        Observers obs;
        obs.sink = &profiler;
        const auto t0 = Clock::now();
        const PipelineRun run = runPipeline(sc, seed, nullptr, obs);
        charge("prof.profiler_ms", msSince(t0), run);
    }
    {
        BlameCollector blame;
        blame.setBench(sc.name);
        blame.setSeed(seed);
        Observers obs;
        obs.blame = &blame;
        const auto t0 = Clock::now();
        const PipelineRun run = runPipeline(sc, seed, nullptr, obs);
        const std::string doc = blame.report().dump(2);
        charge("prof.blame_ms", msSince(t0), run);
        ok = ok && !doc.empty();
    }
    {
        LaneCollector lanes;
        lanes.setBench(sc.name);
        lanes.setSeed(seed);
        Observers obs;
        obs.lanes = &lanes;
        const auto t0 = Clock::now();
        const PipelineRun run = runPipeline(sc, seed, nullptr, obs);
        const std::string doc = lanes.report().dump(2);
        charge("prof.lanes_ms", msSince(t0), run);
        ok = ok && !doc.empty();
    }
    return ok;
}

/// @}

/// @name Workloads
/// @{

/** Outcome of one untraced iteration. */
struct Iteration
{
    bool ok = false;
    Work work;
    double ms = 0.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs from the seed, guard them, and run a warm-up
     * iteration. False (with `why`) if an input fails the guard.
     */
    virtual bool setup(std::string *why) = 0;

    /** One untraced iteration: timed, then checked. */
    virtual Iteration iterate(std::uint64_t i) = 0;

    /** One traced round over iteration `i`'s input. */
    virtual void traceRound(std::uint64_t i, TraceAcc &acc) = 0;

    /** Simulated makespan in cycles the timed loop must report. */
    virtual double makespanCycles() const = 0;

    /** Iterations the loop runs at least, however long they take. */
    virtual std::uint64_t minIterations() const = 0;

    /** The run_ms_tail percentile (fraction). */
    virtual double tailQuantile() const = 0;
};

/// bert256 ----------------------------------------------------------

/**
 * Events one bert256 iteration executes, as pinned by
 * BENCH_hostprof_fig18.json, and the schedule's makespan: the anchor
 * that this is the run the sim-rate baselines track.
 */
constexpr std::uint64_t kBertEvents = 25149;
constexpr Cycle kBertMakespan = 601576;

class BertWorkload : public Workload
{
  public:
    BertWorkload(std::string path, std::uint64_t seed)
        : path_(std::move(path)), seed_(seed)
    {
    }

    bool
    setup(std::string *why) override
    {
        if (!loadScenarioFile(path_, sc_, why))
            return false;
        PipelineRun dry;
        if (!guardScenario(sc_, seed_, &dry, why))
            return false;
        if (!check(dry).ok) {
            *why = "bert256 dry run failed its checks: " +
                   std::to_string(dry.work.events) + " events (pinned " +
                   std::to_string(kBertEvents) + "), makespan " +
                   std::to_string(dry.work.makespan) + " (pinned " +
                   std::to_string(kBertMakespan) + "), " +
                   std::to_string(dry.work.flits) + " flits for " +
                   std::to_string(dry.hops) + " hops";
            return false;
        }
        return true;
    }

    Iteration
    iterate(std::uint64_t) override
    {
        return check(runPipeline(sc_, seed_, nullptr, {}, true));
    }

    void
    traceRound(std::uint64_t, TraceAcc &acc) override
    {
        bool ok = true;
        const Iteration plain = iterate(0);
        Spans spans;
        const Iteration traced =
            check(runPipeline(sc_, seed_, &spans, {}, true));
        ok = ok && plain.ok && traced.ok && traced.work.sameAs(plain.work);
        acc.untracedMs.push_back(plain.ms);
        acc.tracedMs.push_back(traced.ms);
        for (const auto &[k, v] : spans)
            acc.spans[k] += v;

        // Scenario layer on the same input.
        {
            std::string why;
            acc.side["scenario.validate_ms"] +=
                timedMs([&] { ok = validateScenario(sc_, &why) && ok; });
            acc.side["scenario.roundtrip_ms"] +=
                timedMs([&] { ok = roundTrips(sc_) && ok; });
        }

        HostProfiler hp;
        Observers withHp;
        withHp.hostprof = &hp;
        const PipelineRun profiled = runPipeline(sc_, seed_, nullptr, withHp);
        ok = ok && profiled.work.sameAs(plain.work) &&
             hp.events() == plain.work.events;
        acc.hostprof.add(hp);

        ok = priceSinks(sc_, seed_, plain.work, plain.ms, acc) && ok;

        // The fully observed path and its exactness checks.
        ScenarioOverrides over;
        over.seed = seed_;
        const auto o0 = Clock::now();
        const ScenarioExecution exec = executeScenario(sc_, over);
        acc.side["prof.observed_ms"] += msSince(o0);
        acc.side["prof.checks_ms"] +=
            timedMs([&] { ok = observedExact(exec) && ok; });
        ok = ok && exec.makespan == plain.work.makespan &&
             exec.flitsDelivered == plain.work.flits;

        if (acc.countedRounds < kCountRounds) {
            acc.counts["ssn.vectors"] += double(lastVectors_);
            acc.counts["ssn.hops"] += double(lastHops_);
            acc.counts["sim.events"] += double(plain.work.events);
            acc.counts["net.flits_delivered"] += double(plain.work.flits);
            acc.counts["arch.instrs"] += double(plain.work.instrs);
            ++acc.countedRounds;
        }
        if (!ok)
            ++acc.failed;
    }

    double makespanCycles() const override { return double(kBertMakespan); }
    std::uint64_t minIterations() const override { return 500; }
    double tailQuantile() const override { return 0.98; }

    /** Iteration checks shared by the untraced and traced paths. */
    Iteration
    check(const PipelineRun &run)
    {
        Iteration it;
        it.work = run.work;
        it.ms = run.ms;
        lastVectors_ = run.vectors;
        lastHops_ = run.hops;
        it.ok = run.programsOk && run.scheduleValid && run.allHalted &&
                run.work.flits == run.hops &&
                run.work.makespan == kBertMakespan &&
                run.work.events == kBertEvents;
        return it;
    }

  private:
    std::string path_;
    std::uint64_t seed_;
    Scenario sc_;
    std::uint64_t lastVectors_ = 0;
    std::uint64_t lastHops_ = 0;
};

/// hac-sync ---------------------------------------------------------

constexpr unsigned kHacTsps = 256;
constexpr double kHacDriftPpm = 50.0;

/** Simulated synchronize() window: ~180k events on 256 TSPs. */
constexpr Tick kHacWindow = 100 * kPsPerUs;

/** Worst HAC residual, in cycles, an iteration may end with. */
constexpr int kHacResidualBound = 40;

/** Simulated deadline for the payload after launch. */
constexpr Tick kHacPayloadDeadline = 1 * kPsPerMs;

struct HacRun
{
    Work work;
    int residual = 0;
    bool completed = false;
    std::uint64_t criticalErrors = 0;
    double ms = 0.0;
};

class HacWorkload : public Workload
{
  public:
    explicit HacWorkload(std::uint64_t seed) : seed_(seed) {}

    bool
    setup(std::string *why) override
    {
        config_ = SystemConfig();
        config_.numTsps = kHacTsps;
        config_.driftPpmSigma = kHacDriftPpm;
        config_.jitter = true;
        config_.seed = seed_;

        // Per-chip payload: four compute segments of seeded length,
        // each followed by a RUNTIME_DESKEW re-centering the clock.
        Rng rng(seed_ ^ 0x5bd1e995ULL);
        payloads_.assign(kHacTsps, Program());
        for (Program &p : payloads_) {
            for (int seg = 0; seg < 4; ++seg) {
                p.emitCompute(Cycle(1000 + rng.below(3000)));
                p.emit(Op::RuntimeDeskew).imm = 64;
            }
        }

        // The warm-up iteration runs under the host profiler: its
        // event count is exact for the seed and every iteration
        // repeats it.
        HostProfiler hp;
        const HacRun warm = run(nullptr, nullptr, &hp);
        events_ = hp.events();
        makespan_ = warm.work.makespan;
        if (!ok(warm)) {
            *why = "hac-sync warm-up iteration failed its checks";
            return false;
        }
        return true;
    }

    Iteration
    iterate(std::uint64_t) override
    {
        const HacRun r = run(nullptr, nullptr, nullptr);
        Iteration it;
        it.ok = ok(r) && r.work.makespan == makespan_;
        it.work = r.work;
        it.ms = r.ms;
        return it;
    }

    void
    traceRound(std::uint64_t, TraceAcc &acc) override
    {
        const HacRun plain = run(nullptr, nullptr, nullptr);
        Spans spans;
        const HacRun traced = run(&spans, nullptr, nullptr);
        HostProfiler hp;
        const HacRun profiled = run(nullptr, nullptr, &hp);
        bool good = ok(plain) && same(traced, plain) &&
                    same(profiled, plain) && hp.events() == events_;
        acc.untracedMs.push_back(plain.ms);
        acc.tracedMs.push_back(traced.ms);
        for (const auto &[k, v] : spans)
            acc.spans[k] += v;
        acc.hostprof.add(hp);

        {
            std::ostringstream text;
            JournalSink journal(text);
            const HacRun j = run(nullptr, &journal, nullptr);
            acc.journalBytes += double(text.str().size());
            acc.sinkDeltaMs["trace.journal_ms"] += j.ms - plain.ms;
            good = good && same(j, plain);
        }
        {
            ProfilerSink profiler;
            const HacRun p = run(nullptr, &profiler, nullptr);
            acc.sinkDeltaMs["prof.profiler_ms"] += p.ms - plain.ms;
            good = good && same(p, plain);
        }

        if (acc.countedRounds < kCountRounds) {
            acc.counts["sim.events"] += double(hp.events());
            acc.counts["net.flits_delivered"] += double(plain.work.flits);
            acc.counts["arch.instrs"] += double(plain.work.instrs);
            acc.counts["sync.residual_cycles"] += double(plain.residual);
            ++acc.countedRounds;
        }
        if (!good)
            ++acc.failed;
    }

    double makespanCycles() const override { return double(makespan_); }
    std::uint64_t minIterations() const override { return 200; }
    double tailQuantile() const override { return 0.95; }

  private:
    static bool
    ok(const HacRun &r)
    {
        return r.completed && r.criticalErrors == 0 &&
               r.residual >= 0 && r.residual <= kHacResidualBound;
    }

    /** `a` passed and simulated exactly what `b` did. */
    static bool
    same(const HacRun &a, const HacRun &b)
    {
        return ok(a) && a.work.sameAs(b.work) && a.residual == b.residual;
    }

    /**
     * One bring-up: topology, system, synchronize, aligned launch,
     * run to completion. `sink` (journal or profiler) is attached for
     * the system's whole life; the copy of the payloads is made
     * before the clock starts.
     */
    HacRun
    run(Spans *spans, TraceSink *sink, HostProfiler *hp)
    {
        std::vector<Program> payloads = payloads_;
        HacRun r;
        const auto t0 = Clock::now();
        {
            Topology topo = timed(spans, "net.topology_ms", [&] {
                return Topology::forSystemSize(kHacTsps);
            });
            auto sys = timed(spans, "sync.system_ms", [&] {
                return std::make_unique<TsmSystem>(config_,
                                                   std::move(topo));
            });
            if (sink)
                sys->tracer().addSink(sink);
            sys->eventq().setHostProfiler(hp);
            r.residual = timed(spans, "sync.synchronize_ms",
                               [&] { return sys->synchronize(kHacWindow); });
            timed(spans, "sync.launch_ms", [&] {
                sys->launchAligned(std::move(payloads));
                return true;
            });
            const Tick deadline = sys->eventq().now() + kHacPayloadDeadline;
            r.completed = timed(spans, "sim.run_ms", [&] {
                return sys->runToCompletion(deadline);
            });
            if (sink) {
                sys->tracer().removeSink(sink);
                sink->finish();
            }
            sys->eventq().setHostProfiler(nullptr);

            r.criticalErrors = sys->criticalErrors();
            r.work.flits = sys->net().totalFlits();
            // Without a profiler the count is the warm-up's: exact for
            // the seed, and every iteration repeats it.
            r.work.events = hp ? hp->events() : events_;
            Tick lastHalt = 0;
            for (TspId t = 0; t < sys->numTsps(); ++t) {
                const ChipStats &st = sys->chip(t).stats();
                r.work.instrs += st.instrsExecuted;
                if (st.haltTick != kTickInvalid)
                    lastHalt = std::max(lastHalt, st.haltTick);
            }
            r.work.makespan = DriftClock().tickToCycle(lastHalt);
        }
        r.ms = msSince(t0);
        return r;
    }

    std::uint64_t seed_;
    SystemConfig config_;
    std::vector<Program> payloads_;
    std::uint64_t events_ = 0;
    Cycle makespan_ = 0;
};

/// fuzz-observed ----------------------------------------------------

/** Scenarios in one run's pool; every iteration runs one of them. */
constexpr std::uint64_t kFuzzPool = 512;

/** Cases whose iterations warm the caches before timing. */
constexpr std::uint64_t kFuzzWarmup = 8;

class FuzzWorkload : public Workload
{
  public:
    explicit FuzzWorkload(std::uint64_t seed) : seed_(seed) {}

    /**
     * The pool is generateScenario(base + i) for the first kFuzzPool
     * seeds from base = seed * 1,000,000 that pass the input guard,
     * so pools of different seeds share no scenario.
     */
    bool
    setup(std::string *why) override
    {
        pool_.clear();
        refs_.clear();
        makespanTotal_ = 0;
        std::uint64_t rejected = 0;
        for (std::uint64_t s = seed_ * 1'000'000;
             pool_.size() < kFuzzPool; ++s) {
            const Scenario sc = generateScenario(s);
            PipelineRun dry;
            std::string reason;
            if (!guardScenario(sc, sc.seed, &dry, &reason)) {
                ++rejected;
                continue;
            }
            pool_.push_back(s);
            refs_.push_back(dry.work);
            makespanTotal_ += dry.work.makespan;
        }
        if (rejected > kFuzzPool / 8) {
            *why = "fuzz-observed: too many generated scenarios fail the "
                   "input guard";
            return false;
        }
        for (std::uint64_t i = 0; i < kFuzzWarmup; ++i) {
            if (!iterate(i).ok) {
                *why = "fuzz-observed warm-up iteration failed its checks";
                return false;
            }
        }
        return true;
    }

    Iteration
    iterate(std::uint64_t i) override
    {
        return observe(i, nullptr);
    }

    void
    traceRound(std::uint64_t i, TraceAcc &acc) override
    {
        const Iteration plain = observe(i, nullptr);
        Spans spans;
        const Iteration traced = observe(i, &spans);
        acc.untracedMs.push_back(plain.ms);
        acc.tracedMs.push_back(traced.ms);
        for (const auto &[k, v] : spans)
            acc.spans[k] += v;
        bool ok = plain.ok && traced.ok && traced.work.sameAs(plain.work);

        // The layers beneath executeScenario, timed on the same case
        // through the headless pipeline.
        const Scenario sc = generateScenario(pool_[i % kFuzzPool]);
        Spans layers;
        const PipelineRun headless =
            runPipeline(sc, sc.seed, &layers, {}, false);
        for (const auto &[k, v] : layers)
            acc.side[k] += v;
        ok = ok && headless.programsOk && headless.allHalted &&
             headless.work.sameAs(plain.work);

        HostProfiler hp;
        Observers withHp;
        withHp.hostprof = &hp;
        const PipelineRun profiled = runPipeline(sc, sc.seed, nullptr, withHp);
        ok = ok && profiled.work.sameAs(headless.work) &&
             hp.events() == headless.work.events;
        acc.hostprof.add(hp);

        ok = priceSinks(sc, sc.seed, headless.work, headless.ms, acc) && ok;

        if (acc.countedRounds < kCountRounds) {
            acc.counts["ssn.vectors"] += double(headless.vectors);
            acc.counts["ssn.hops"] += double(headless.hops);
            acc.counts["sim.events"] += double(headless.work.events);
            acc.counts["net.flits_delivered"] +=
                double(headless.work.flits);
            acc.counts["arch.instrs"] += double(headless.work.instrs);
            ++acc.countedRounds;
        }
        if (!ok)
            ++acc.failed;
    }

    /** Sum of the pool's makespans: exact for the seed. */
    double makespanCycles() const override { return double(makespanTotal_); }
    std::uint64_t minIterations() const override { return kFuzzPool; }
    double tailQuantile() const override { return 0.98; }

  private:
    /**
     * One tsm_fuzz case: generate, validate, round-trip, execute with
     * every sink attached, and check exactness.
     */
    Iteration
    observe(std::uint64_t i, Spans *spans)
    {
        const std::uint64_t k = i % kFuzzPool;
        Iteration it;
        const auto t0 = Clock::now();
        const Scenario sc = timed(spans, "scenario.generate_ms",
                                  [&] { return generateScenario(pool_[k]); });
        std::string why;
        const bool valid = timed(spans, "scenario.validate_ms",
                                 [&] { return validateScenario(sc, &why); });
        const bool stable = timed(spans, "scenario.roundtrip_ms", [&] {
            return roundTrips(sc);
        });
        const ScenarioExecution exec = timed(spans, "prof.observed_ms",
                                       [&] { return executeScenario(sc); });
        const bool exact = timed(spans, "prof.checks_ms", [&] {
            return observedExact(exec);
        });
        it.ms = msSince(t0);
        // executeScenario does not expose its event count; the guard's
        // dry run of the same scenario is the exact reference.
        it.work = refs_[k];
        it.ok = valid && stable && exact &&
                exec.makespan == refs_[k].makespan &&
                exec.flitsDelivered == refs_[k].flits;
        return it;
    }

    std::uint64_t seed_;
    std::vector<std::uint64_t> pool_;
    std::vector<Work> refs_; ///< the guard's dry run of each pool entry
    std::uint64_t makespanTotal_ = 0;
};

/// @}

/// @name Output
/// @{

struct Metric
{
    std::string name;
    double value;
    const char *unit;
    const char *better;
};

void
printResult(const std::vector<Metric> &metrics, bool correct,
            std::uint64_t attempted, std::uint64_t failed)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %18.6f %-6s (%s is better)\n", m.name.c_str(),
                    m.value, m.unit, m.better);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

/// @}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scenario = "perfbench/fig18_bert_scaling_256.json";
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::strtoull(value, &end, 10);
        else if (flag == "--seconds")
            o.seconds = std::strtod(value, &end);
        else if (flag == "--trace")
            o.trace = std::strtoul(value, &end, 10) != 0;
        else if (flag == "--scenario")
            o.scenario = value;
        else
            return false;
        if (end && *end)
            return false;
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "bert256")
        return std::make_unique<BertWorkload>(o.scenario, o.seed);
    if (o.workload == "hac-sync")
        return std::make_unique<HacWorkload>(o.seed);
    if (o.workload == "fuzz-observed")
        return std::make_unique<FuzzWorkload>(o.seed);
    return nullptr;
}

/**
 * Set-ups per run: at least kSetupReps and at least kSetupMinS of
 * them, so a cheap set-up is repeated often enough for a steady
 * median. setup_s is their median.
 */
constexpr int kSetupReps = 5;
constexpr double kSetupMinS = 1.0;

int
runEndToEnd(const Options &o)
{
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    double setupTotalS = 0.0;
    while (int(setups.size()) < kSetupReps || setupTotalS < kSetupMinS) {
        w = makeWorkload(o);
        std::string why;
        const auto t0 = Clock::now();
        if (!w->setup(&why)) {
            std::fprintf(stderr, "perfbench: %s\n", why.c_str());
            return 1;
        }
        setups.push_back(msSince(t0) / 1e3);
        setupTotalS += setups.back();
    }

    std::vector<double> iterMs;
    std::uint64_t events = 0;
    std::uint64_t failed = 0;
    double busyMs = 0.0; // the iterations' own time, checks excluded
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0;
         i < w->minIterations() || msSince(t0) < o.seconds * 1e3; ++i) {
        const Iteration it = w->iterate(i);
        iterMs.push_back(it.ms);
        busyMs += it.ms;
        events += it.work.events;
        if (!it.ok)
            ++failed;
    }
    const double loopS = msSince(t0) / 1e3;

    const double q = w->tailQuantile();
    std::printf("perfbench %s seed %llu: %zu iterations in %.2f s; "
                "run_ms_tail is p%g of %zu samples\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                iterMs.size(), loopS, q * 100.0, iterMs.size());
    std::printf("iteration ms: min %.3f p10 %.3f p50 %.3f p90 %.3f p99 "
                "%.3f max %.3f\n",
                quantile(iterMs, 0.0), quantile(iterMs, 0.1),
                quantile(iterMs, 0.5), quantile(iterMs, 0.9),
                quantile(iterMs, 0.99), quantile(iterMs, 1.0));
    const std::vector<Metric> metrics = {
        {"setup_s", median(setups), "s", "lower"},
        {"run_ms_p50", median(iterMs), "ms", "lower"},
        {"run_ms_tail", quantile(iterMs, q), "ms", "lower"},
        {"sim_events_per_s", double(events) * 1e3 / busyMs, "1/s",
         "higher"},
        {"peak_rss_mb", peakRssMb(), "MB", "lower"},
        {"sim_makespan_cycles", w->makespanCycles(), "cycles", "lower"},
        {"ok_frac", 1.0 - double(failed) / double(iterMs.size()), "frac",
         "higher"},
    };
    printResult(metrics, failed == 0, iterMs.size(), failed);
    return 0;
}

int
runTraced(const Options &o)
{
    std::unique_ptr<Workload> w = makeWorkload(o);
    std::string why;
    if (!w->setup(&why)) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        return 1;
    }

    TraceAcc acc;
    const auto t0 = Clock::now();
    while (acc.rounds < 4 || msSince(t0) < o.seconds * 1e3)
        w->traceRound(acc.rounds++, acc);

    const double n = double(acc.rounds);
    const auto mean = [&](const char *layer) {
        double sum = 0.0;
        for (const Spans *m : {&acc.spans, &acc.side})
            if (const auto it = m->find(layer); it != m->end())
                sum += it->second;
        return sum / n;
    };
    const auto counted = [&](const char *name) {
        const auto it = acc.counts.find(name);
        return it == acc.counts.end() || acc.countedRounds == 0
                   ? 0.0
                   : it->second / double(acc.countedRounds);
    };
    const auto sink = [&](const char *name) {
        const auto it = acc.sinkDeltaMs.find(name);
        return it == acc.sinkDeltaMs.end() ? 0.0 : it->second / n;
    };
    const HostprofTotals &hp = acc.hostprof;
    double iterationMs = 0.0;
    for (double v : acc.tracedMs)
        iterationMs += v;
    iterationMs /= n;
    const double schedMs = mean("ssn.schedule_ms");
    const double vectors = counted("ssn.vectors");

    const std::vector<Metric> metrics = {
        {"scenario.generate_ms", mean("scenario.generate_ms"), "ms", "lower"},
        {"scenario.validate_ms", mean("scenario.validate_ms"), "ms", "lower"},
        {"scenario.roundtrip_ms", mean("scenario.roundtrip_ms"), "ms",
         "lower"},
        {"scenario.lower_ms", mean("scenario.lower_ms"), "ms", "lower"},
        {"net.topology_ms", mean("net.topology_ms"), "ms", "lower"},
        {"net.flits_delivered", counted("net.flits_delivered"), "count",
         "lower"},
        {"ssn.schedule_ms", schedMs, "ms", "lower"},
        {"ssn.vectors", vectors, "count", "lower"},
        {"ssn.hops", counted("ssn.hops"), "count", "lower"},
        {"ssn.us_per_vector", vectors > 0 ? schedMs * 1e3 / vectors : 0.0,
         "us", "lower"},
        {"ssn.programs_ms", mean("ssn.programs_ms"), "ms", "lower"},
        {"arch.chips_ms", mean("arch.chips_ms"), "ms", "lower"},
        {"arch.instrs", counted("arch.instrs"), "count", "lower"},
        {"sim.run_ms", mean("sim.run_ms"), "ms", "lower"},
        {"sim.events", counted("sim.events"), "count", "lower"},
        {"sim.ns_per_event",
         hp.events ? double(hp.wallNs) / double(hp.events) : 0.0, "ns",
         "lower"},
        {"sim.queue_share",
         hp.wallNs ? double(hp.queueNs) / double(hp.wallNs) : 0.0, "frac",
         "lower"},
        {"sim.allocs_per_event",
         hp.events ? double(hp.allocs) / double(hp.events) : 0.0,
         "1/event", "lower"},
        {"sim.max_queue_depth", double(hp.maxDepth), "count", "lower"},
        {"sim.chip_issue_ns_per_event", hp.nsPerEvent(EventKind::ChipIssue),
         "ns", "lower"},
        {"sim.net_deliver_ns_per_event",
         hp.nsPerEvent(EventKind::NetDeliver), "ns", "lower"},
        {"sim.hac_update_ns_per_event", hp.nsPerEvent(EventKind::HacUpdate),
         "ns", "lower"},
        {"sync.system_ms", mean("sync.system_ms"), "ms", "lower"},
        {"sync.synchronize_ms", mean("sync.synchronize_ms"), "ms", "lower"},
        {"sync.launch_ms", mean("sync.launch_ms"), "ms", "lower"},
        {"sync.residual_cycles", counted("sync.residual_cycles"), "cycles",
         "lower"},
        {"prof.observed_ms", mean("prof.observed_ms"), "ms", "lower"},
        {"prof.checks_ms", mean("prof.checks_ms"), "ms", "lower"},
        {"trace.journal_ms", sink("trace.journal_ms"), "ms", "lower"},
        {"prof.profiler_ms", sink("prof.profiler_ms"), "ms", "lower"},
        {"prof.blame_ms", sink("prof.blame_ms"), "ms", "lower"},
        {"prof.lanes_ms", sink("prof.lanes_ms"), "ms", "lower"},
        {"trace.journal_bytes", acc.journalBytes / n, "bytes", "lower"},
        {"bench.tracing_overhead_ms",
         median(acc.tracedMs) - median(acc.untracedMs), "ms", "lower"},
        {"bench.iteration_ms", iterationMs, "ms", "lower"},
    };

    // Module shares of the traced iteration, for the README's table.
    std::map<std::string, double> modules;
    for (const auto &[layer, ms] : acc.spans)
        modules[layer.substr(0, layer.find('.'))] += ms / n;
    double sinksMs = 0.0;
    for (const auto &[name, ms] : acc.sinkDeltaMs)
        sinksMs += ms / n;
    std::printf("perfbench %s seed %llu traced: %llu rounds, %.3f ms per "
                "iteration; shares:",
                o.workload.c_str(), (unsigned long long)o.seed,
                (unsigned long long)acc.rounds, iterationMs);
    for (const auto &[module, ms] : modules)
        std::printf(" %s %.1f%%", module.c_str(), 100.0 * ms / iterationMs);
    std::printf("; sinks priced alone %.1f%%; queue %.1f%% of "
                "profiled sim time\n",
                100.0 * sinksMs / iterationMs,
                hp.wallNs ? 100.0 * double(hp.queueNs) / double(hp.wallNs)
                          : 0.0);
    printResult(metrics, acc.failed == 0, acc.rounds, acc.failed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseOptions(argc, argv, o) || !makeWorkload(o)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload bert256|hac-sync|"
                     "fuzz-observed --seed N --seconds S --trace 0|1 "
                     "[--scenario FILE]\n");
        return 2;
    }
    return o.trace ? runTraced(o) : runEndToEnd(o);
}
