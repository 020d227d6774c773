#include "runtime/counterfactual.hh"

#include <cmath>

#include "prof/profiler.hh"
#include "runtime/machine.hh"

namespace tsm {

bool
runCounterfactual(const Topology &topo, const WhatIfCounterfactual &cf,
                   std::uint64_t seed, CounterfactualRun *out,
                   std::string *error)
{
    CompiledScenario compiled;
    compiled.topo = topo;
    compiled.schedule = cf.schedule;
    if (!tryBuildPrograms(compiled.schedule, topo, {}, {}, compiled.programs,
                          error))
        return false;

    const Cycle promised = staticCompletionCycles(compiled.programs);

    ProfilerSink prof;
    Machine machine(compiled, seed);
    for (const LinkTimingOverride &lt : cf.linkTiming)
        machine.net().setLinkTiming(lt.link, lt.serializationPs,
                                    lt.propagationPs);
    machine.eventq().tracer().addSink(&prof);
    machine.run();
    prof.finish();

    CounterfactualRun run;
    run.staticCompletionCycles = promised;
    run.simulatedCompletionCycles = Cycle(
        std::llround(double(prof.lastRecvTick()) / kCorePeriodPs));
    run.gapCycles = std::int64_t(run.simulatedCompletionCycles) -
                    std::int64_t(run.staticCompletionCycles);
    run.flitsDelivered = machine.net().totalFlits();
    if (out)
        *out = run;
    return true;
}

} // namespace tsm
