#include "runtime/system.hh"

#include "common/log.hh"

namespace tsm {

TsmSystem::TsmSystem(const SystemConfig &config)
    : TsmSystem(config, Topology::forSystemSize(config.numTsps))
{
}

TsmSystem::TsmSystem(const SystemConfig &config, Topology topo)
    : config_(config), topo_(std::move(topo)), rng_(config.seed)
{
    net_ = std::make_unique<Network>(topo_, eq_, rng_.fork(1),
                                     config_.jitter);
    net_->setErrorModel(config_.errors);
    buildChips();
}

void
TsmSystem::buildChips()
{
    Rng drift_rng = rng_.fork(2);
    for (TspId t = 0; t < topo_.numTsps(); ++t) {
        const double ppm = config_.driftPpmSigma > 0.0
                               ? drift_rng.gaussian(0.0,
                                                    config_.driftPpmSigma)
                               : 0.0;
        // Small random phase: chips power up unsynchronized.
        const Tick phase =
            config_.driftPpmSigma > 0.0 ? Tick(drift_rng.below(100000)) : 0;
        chips_.push_back(
            std::make_unique<TspChip>(t, *net_, DriftClock(ppm, phase)));
    }
    launched_.assign(chips_.size(), false);
}

int
TsmSystem::synchronize(Tick duration)
{
    const SyncTree tree = SyncTree::build(topo_, 0);
    SystemSynchronizer sync(
        [this] {
            std::vector<TspChip *> raw;
            for (auto &c : chips_)
                raw.push_back(c.get());
            return raw;
        }(),
        tree);
    if (eq_.tracer().wants(TraceCat::Runtime))
        eq_.tracer().emit({eq_.now(), duration, TraceCat::Runtime,
                           TraceOp::Synchronize, 0, std::int64_t(chips_.size()),
                           0});
    sync.start();
    eq_.runUntil(eq_.now() + duration);
    sync.stop();
    // Drain the aligners' final pending updates.
    eq_.run();
    return sync.worstDelta();
}

void
TsmSystem::launchAligned(std::vector<Program> payloads)
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
        Program payload = std::move(payloads[t]);
        if (payload.instrs.empty() ||
            payload.instrs.back().op != Op::Halt) {
            payload.emitHalt();
        }
        chips_[t]->load(plan.assemble(t, payload));
        chips_[t]->start(start);
        launched_[t] = true;
    }
}

void
TsmSystem::launchRaw(std::vector<Program> payloads, Tick at)
{
    TSM_ASSERT(payloads.size() == chips_.size(),
               "one payload per chip required (may be empty)");
    if (eq_.tracer().wants(TraceCat::Runtime))
        eq_.tracer().emit({eq_.now(), 0, TraceCat::Runtime,
                           TraceOp::LaunchRaw, 0, std::int64_t(chips_.size()),
                           std::int64_t(at)});
    for (TspId t = 0; t < chips_.size(); ++t) {
        Program payload = std::move(payloads[t]);
        if (payload.instrs.empty() ||
            payload.instrs.back().op != Op::Halt) {
            payload.emitHalt();
        }
        chips_[t]->load(std::move(payload));
        chips_[t]->start(at);
        launched_[t] = true;
    }
}

bool
TsmSystem::runToCompletion(Tick deadline)
{
    const auto all_halted = [this] {
        for (TspId t = 0; t < chips_.size(); ++t)
            if (launched_[t] && !chips_[t]->halted())
                return false;
        return true;
    };
    while (!all_halted()) {
        if (eq_.pending() == 0)
            return false; // wedged: somebody waits forever
        if (deadline != kTickInvalid && eq_.now() >= deadline)
            return false;
        eq_.run(100000);
    }
    if (eq_.tracer().wants(TraceCat::Runtime))
        eq_.tracer().emit({eq_.now(), 0, TraceCat::Runtime,
                           TraceOp::Completed, 0, std::int64_t(chips_.size()),
                           0});
    return true;
}

std::uint64_t
TsmSystem::criticalErrors() const
{
    std::uint64_t total = net_->totalMbes();
    for (const auto &c : chips_)
        total += c->stats().corruptReceived;
    return total;
}

} // namespace tsm
