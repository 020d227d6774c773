#include "runtime/machine.hh"

#include "common/log.hh"
#include "ssn/schedule_trace.hh"
#include "sync/program_alignment.hh"
#include "sync/sync_tree.hh"

namespace tsm {

Machine::Machine(const CompiledScenario &compiled, std::uint64_t seed,
                 double mbe)
    : compiled_(&compiled), topo_(compiled.topo), seed_(seed),
      net_(topo_, eq_, Rng(seed))
{
    if (mbe > 0.0) {
        ErrorModel errors;
        errors.mbePerVector = mbe;
        net_.setErrorModel(errors);
    }
    for (TspId t = 0; t < topo_.numTsps(); ++t) {
        chips_.push_back(std::make_unique<TspChip>(t, net_, DriftClock()));
        const auto &instrs = compiled.programs.byChip[t].instrs;
        Program program;
        program.instrs.reserve(instrs.size() + 1);
        program.instrs.assign(instrs.begin(), instrs.end());
        program.emitHalt();
        chips_[t]->setStream(0, makeVec(Vec(1.0f)));
        chips_[t]->load(std::move(program));
    }
}

Machine::Machine(const SystemConfig &config)
    : Machine(config, Topology::forSystemSize(config.numTsps))
{
}

Machine::Machine(const SystemConfig &config, Topology topo)
    : ownTopo_(std::move(topo)), topo_(ownTopo_), seed_(config.seed),
      net_(topo_, eq_, Rng(config.seed).fork(1), config.jitter)
{
    net_.setErrorModel(config.errors);
    Rng drift = Rng(config.seed).fork(2);
    const bool drifting = config.driftPpmSigma > 0.0;
    for (TspId t = 0; t < topo_.numTsps(); ++t) {
        const double ppm =
            drifting ? drift.gaussian(0.0, config.driftPpmSigma) : 0.0;
        // Small random phase: chips power up unsynchronized.
        const Tick phase = drifting ? Tick(drift.below(100000)) : 0;
        chips_.push_back(
            std::make_unique<TspChip>(t, net_, DriftClock(ppm, phase)));
    }
}

std::uint64_t
Machine::run(const std::vector<Observer *> &observers,
             const std::string &bench, HostProfiler *hostprof)
{
    TSM_ASSERT(compiled_, "run() needs a compiled machine");
    const RunIdentity identity{bench, seed_};
    Tracer &tracer = eq_.tracer();
    for (Observer *o : observers) {
        o->onCompiled(identity, compiled_);
        if (TraceSink *sink = o->traceSink())
            tracer.addSink(sink);
    }
    if (!observers.empty())
        traceSchedule(tracer, compiled_->schedule);
    eq_.setHostProfiler(hostprof);

    for (auto &chip : chips_)
        chip->start(0);
    const std::uint64_t events = eq_.run();

    eq_.setHostProfiler(nullptr);
    for (Observer *o : observers)
        if (TraceSink *sink = o->traceSink())
            tracer.removeSink(sink);
    return events;
}

int
Machine::synchronize(Tick duration)
{
    std::vector<TspChip *> chips;
    for (auto &c : chips_)
        chips.push_back(c.get());
    SystemSynchronizer sync(chips, SyncTree::build(topo_, 0));
    if (eq_.tracer().wants(TraceCat::Runtime))
        eq_.tracer().emit({eq_.now(), duration, TraceCat::Runtime,
                           TraceOp::Synchronize, 0,
                           std::int64_t(chips_.size()), 0});
    sync.start();
    eq_.runUntil(eq_.now() + duration);
    sync.stop();
    // Drain the aligners' final pending updates.
    eq_.run();
    return sync.worstDelta();
}

namespace {

/** A payload ends in Halt, whether or not its author emitted one. */
Program
halting(Program payload)
{
    if (payload.instrs.empty() || payload.instrs.back().op != Op::Halt)
        payload.emitHalt();
    return payload;
}

} // namespace

void
Machine::launchAligned(std::vector<Program> payloads)
{
    TSM_ASSERT(payloads.size() == chips_.size(),
               "one payload per chip required (may be empty)");
    const SyncTree tree = SyncTree::build(topo_, 0);
    const AlignmentPlan plan = AlignmentPlan::build(topo_, tree);
    const Tick start = eq_.now();
    if (eq_.tracer().wants(TraceCat::Runtime))
        eq_.tracer().emit({start, 0, TraceCat::Runtime,
                           TraceOp::LaunchAligned, 0,
                           std::int64_t(chips_.size()), 0});
    for (TspId t = 0; t < chips_.size(); ++t) {
        chips_[t]->load(plan.assemble(t, halting(std::move(payloads[t]))));
        chips_[t]->start(start);
    }
}

void
Machine::launch(std::vector<Program> payloads, Tick at)
{
    TSM_ASSERT(payloads.size() == chips_.size(),
               "one payload per chip required (may be empty)");
    if (eq_.tracer().wants(TraceCat::Runtime))
        eq_.tracer().emit({eq_.now(), 0, TraceCat::Runtime,
                           TraceOp::LaunchRaw, 0,
                           std::int64_t(chips_.size()), std::int64_t(at)});
    for (TspId t = 0; t < chips_.size(); ++t) {
        chips_[t]->load(halting(std::move(payloads[t])));
        chips_[t]->start(at);
    }
}

bool
Machine::runToCompletion(Tick deadline)
{
    const auto allHalted = [this] {
        for (const auto &chip : chips_)
            if (!chip->halted())
                return false;
        return true;
    };
    while (!allHalted()) {
        // Nothing pending: somebody waits forever. Nothing run: the
        // next event is past the deadline.
        if (eq_.pending() == 0 || eq_.run(100000, deadline) == 0)
            return false;
    }
    if (eq_.tracer().wants(TraceCat::Runtime))
        eq_.tracer().emit({eq_.now(), 0, TraceCat::Runtime,
                           TraceOp::Completed, 0,
                           std::int64_t(chips_.size()), 0});
    return true;
}

std::uint64_t
Machine::criticalErrors() const
{
    std::uint64_t total = net_.totalMbes();
    for (const auto &c : chips_)
        total += c->stats().corruptReceived;
    return total;
}

} // namespace tsm
