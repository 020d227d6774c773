#include "runtime/machine.hh"

#include "ssn/schedule_trace.hh"

namespace tsm {

Machine::Machine(const CompiledScenario &compiled, std::uint64_t seed,
                 double mbe)
    : compiled_(compiled), seed_(seed), net_(compiled.topo, eq_, Rng(seed))
{
    if (mbe > 0.0) {
        ErrorModel errors;
        errors.mbePerVector = mbe;
        net_.setErrorModel(errors);
    }
    for (TspId t = 0; t < compiled.topo.numTsps(); ++t) {
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

std::uint64_t
Machine::run(const std::vector<Observer *> &observers,
             const std::string &bench, HostProfiler *hostprof)
{
    const RunIdentity identity{bench, seed_};
    Tracer &tracer = eq_.tracer();
    for (Observer *o : observers) {
        o->onCompiled(identity, &compiled_);
        if (TraceSink *sink = o->traceSink())
            tracer.addSink(sink);
    }
    if (!observers.empty())
        traceSchedule(tracer, compiled_.schedule);
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

} // namespace tsm
