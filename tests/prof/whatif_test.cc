/**
 * @file
 * What-if engine tests: the identity-exactness theorem (recomputing
 * the schedule's constraint graph with unchanged timing reproduces
 * every hop cycle), zero-magnitude perturbations projecting zero
 * makespan delta on every checked-in scenario, flow-removal
 * semantics, projection-vs-resimulation agreement (gap == 0), and
 * byte-determinism plus structural invariants of the tsm-whatif-v1
 * document, and its observed completion counting corrupt receives.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "prof/report.hh"
#include "prof/whatif.hh"
#include "runtime/counterfactual.hh"
#include "runtime/machine.hh"
#include "scenario/scenario.hh"
#include "ssn/scheduler.hh"

namespace tsm {
namespace {

TensorTransfer
makeTransfer(FlowId flow, TspId src, TspId dst, std::uint32_t vectors,
             Cycle earliest = 0)
{
    TensorTransfer t;
    t.flow = flow;
    t.src = src;
    t.dst = dst;
    t.vectors = vectors;
    t.earliest = earliest;
    return t;
}

/** A contended all-to-one pattern plus a staggered background flow. */
std::vector<TensorTransfer>
contendedTransfers()
{
    std::vector<TensorTransfer> transfers;
    transfers.push_back(makeTransfer(1, 1, 0, 24));
    transfers.push_back(makeTransfer(2, 2, 0, 16, 100));
    transfers.push_back(makeTransfer(3, 3, 0, 8, 50));
    transfers.push_back(makeTransfer(4, 1, 2, 12, 400));
    return transfers;
}

TEST(WhatIfEngine, IdentityExactOnContendedSchedule)
{
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = contendedTransfers();
    const auto sched = scheduler.schedule(transfers);
    const WhatIfEngine engine(sched, topo);

    std::string why;
    EXPECT_TRUE(engine.identityExact(&why)) << why;
}

TEST(WhatIfEngine, IdentityExactWithNonMinimalRouting)
{
    // Multi-hop paths exercise the pipeline-forward edge of the
    // constraint graph (hop h waits on hop h-1's arrival).
    const Topology topo = Topology::makeNode();
    SsnConfig config;
    config.maxExtraHops = 1;
    config.maxPaths = 8;
    config.loadBalance = true;
    SsnScheduler scheduler(topo, config);
    const auto transfers =
        std::vector{makeTransfer(1, 0, 7, 64), makeTransfer(2, 7, 0, 64),
                    makeTransfer(3, 3, 4, 48)};
    const auto sched = scheduler.schedule(transfers);
    const WhatIfEngine engine(sched, topo);

    std::string why;
    EXPECT_TRUE(engine.identityExact(&why)) << why;
}

TEST(WhatIfEngine, ZeroMagnitudePerturbationProjectsZeroDelta)
{
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = contendedTransfers();
    const auto sched = scheduler.schedule(transfers);
    const WhatIfEngine engine(sched, topo);

    for (const Perturbation &p : engine.enumerateLevers(1.0)) {
        if (p.kind == LeverKind::FlowRemoval)
            continue; // removal has no magnitude to zero out
        const WhatIfProjection proj = engine.project(p);
        EXPECT_EQ(proj.projectedMakespan, sched.makespan) << p.label();
        EXPECT_EQ(proj.deltaCycles, 0) << p.label();
        EXPECT_EQ(proj.affectedHops, 0u) << p.label();
        EXPECT_TRUE(proj.affectedFlows.empty()) << p.label();
    }
}

TEST(WhatIfEngine, ZeroMagnitudeIsNoOpOnEveryCheckedInScenario)
{
    // The identity theorem, pinned against the real figure scenarios:
    // the engine must explain every checked-in schedule exactly, and
    // a factor-1 lever of any kind must not move the makespan.
    for (const char *name :
         {"/contention_probe.json", "/fig08_ssn_vs_hw_contention.json",
          "/fig10_nonminimal_routing.json",
          "/fig14_distributed_matmul.json", "/fig16_allreduce.json",
          "/fig17_bert_latency.json", "/fig19_cholesky.json"}) {
        const std::string path = std::string(TSM_SCENARIO_DIR) + name;
        Scenario scenario;
        std::string error;
        ASSERT_TRUE(loadScenarioFile(path, scenario, &error))
            << path << ": " << error;
        const auto compiled = compileScenario(scenario, &error);
        ASSERT_TRUE(compiled) << path << ": " << error;
        const WhatIfEngine engine(compiled->schedule, compiled->topo);

        std::string why;
        EXPECT_TRUE(engine.identityExact(&why)) << name << ": " << why;
        for (const Perturbation &p : engine.enumerateLevers(1.0)) {
            if (p.kind == LeverKind::FlowRemoval)
                continue;
            const WhatIfProjection proj = engine.project(p);
            EXPECT_EQ(proj.deltaCycles, 0) << name << ": " << p.label();
            EXPECT_EQ(proj.affectedHops, 0u)
                << name << ": " << p.label();
        }
    }
}

TEST(WhatIfEngine, SpeedupLeversNeverProjectSlowdown)
{
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = contendedTransfers();
    const auto sched = scheduler.schedule(transfers);
    const WhatIfEngine engine(sched, topo);

    for (const WhatIfProjection &proj : rankedLevers(engine, 2.0)) {
        if (proj.lever.kind == LeverKind::HacDrift)
            continue;
        EXPECT_GE(proj.deltaCycles, 0) << proj.lever.label();
        EXPECT_LE(proj.projectedMakespan, sched.makespan)
            << proj.lever.label();
    }
}

TEST(WhatIfEngine, FlowRemovalSemantics)
{
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = contendedTransfers();
    const auto sched = scheduler.schedule(transfers);
    const WhatIfEngine engine(sched, topo);

    Perturbation p;
    p.kind = LeverKind::FlowRemoval;
    p.target = 1;
    const WhatIfProjection proj = engine.project(p);
    EXPECT_EQ(proj.removedVectors, 24u);
    ASSERT_FALSE(proj.affectedFlows.empty());
    EXPECT_EQ(proj.affectedFlows.front(), FlowId(1));

    const WhatIfCounterfactual cf = engine.rebuild(p);
    EXPECT_EQ(cf.schedule.makespan, proj.projectedMakespan);
    EXPECT_EQ(cf.schedule.flows.size(), transfers.size() - 1);
    for (const ScheduledVector &sv : cf.schedule.vectors)
        EXPECT_NE(sv.flow, FlowId(1));
    EXPECT_EQ(cf.schedule.flows.count(FlowId(1)), 0u);
}

TEST(WhatIfEngine, ComputeLeverRebuildCarriesPerturbedInjection)
{
    // The rebuilt schedule's flow summaries carry the injection cycles
    // the perturbed machine would have: flows 1 and 4 are sourced at
    // chip 1, flow 2 at chip 2.
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto sched = scheduler.schedule(contendedTransfers());
    const WhatIfEngine engine(sched, topo);

    const WhatIfCounterfactual cf =
        engine.rebuild({LeverKind::FuThroughput, 1, 2.0});
    EXPECT_EQ(cf.schedule.flows.at(4).earliest, 200u);
    EXPECT_EQ(cf.schedule.flows.at(1).earliest, 0u);
    EXPECT_EQ(cf.schedule.flows.at(2).earliest, 100u);
}

TEST(WhatIfEngine, ProjectionMatchesResimulation)
{
    // The tentpole claim: a counterfactual's projected completion is
    // what a simulation of the perturbed machine actually reaches —
    // gap == 0, for the baseline and for every standard lever.
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = contendedTransfers();
    const auto sched = scheduler.schedule(transfers);
    const WhatIfEngine engine(sched, topo);

    Perturbation identity;
    identity.kind = LeverKind::HacDrift;
    CounterfactualRun baseline;
    std::string error;
    ASSERT_TRUE(runCounterfactual(topo, engine.rebuild(identity), 1,
                                  &baseline, &error))
        << error;
    EXPECT_EQ(baseline.gapCycles, 0);

    for (const WhatIfProjection &proj : rankedLevers(engine, 2.0)) {
        if (proj.lever.kind == LeverKind::HacDrift)
            continue;
        const WhatIfCounterfactual cf = engine.rebuild(proj.lever);
        EXPECT_EQ(cf.schedule.makespan, proj.projectedMakespan)
            << proj.lever.label();
        CounterfactualRun run;
        ASSERT_TRUE(runCounterfactual(topo, cf, 1, &run, &error))
            << proj.lever.label() << ": " << error;
        EXPECT_EQ(run.gapCycles, 0) << proj.lever.label();
    }
}

TEST(WhatIfCollector, DocumentIsDeterministicAndSound)
{
    const auto compiled =
        compileTransfers(Topology::makeNode(), contendedTransfers());
    ASSERT_TRUE(compiled.has_value());
    const NetworkSchedule &sched = compiled->schedule;

    auto build = [&] {
        WhatIfCollector collector;
        collector.setBench("whatif_test");
        collector.setSeed(7);
        collector.setSchedule(*compiled);
        return collector.report();
    };
    const Json a = build();
    const Json b = build();
    EXPECT_EQ(a.dump(2), b.dump(2));

    EXPECT_EQ(a["schema"].str(), kWhatIfSchema);
    EXPECT_EQ(a["bench"].str(), "whatif_test");
    EXPECT_EQ(a["base"]["makespan_cycles"].number(),
              double(sched.makespan));
    std::string why;
    EXPECT_TRUE(checkWhatIfInvariants(a, &why)) << why;

    const std::string summary = renderWhatIfSummary(a);
    EXPECT_NE(summary.find("what-if"), std::string::npos);
    EXPECT_NE(summary.find("levers"), std::string::npos);
}

TEST(WhatIfCollector, ObservedCompletionCountsCorruptReceives)
{
    // Every vector takes an FEC multi-bit error, so every consuming
    // receive is a corrupt one: the run still completes when the last
    // of them lands, as the profiler's simulated completion says.
    const auto compiled =
        compileTransfers(Topology::makeNode(), contendedTransfers());
    ASSERT_TRUE(compiled.has_value());
    WhatIfCollector whatif;
    ProfileCollector profile;
    Machine machine(*compiled, 1, 1.0);
    machine.run({&whatif, &profile});
    profile.finish();

    const Json simulated =
        profile.report()["ssn"]["simulated_completion_cycles"];
    ASSERT_GT(simulated.integer(), 0);
    EXPECT_EQ(whatif.report()["base"]["observed_completion_cycles"].dump(),
              simulated.dump());
}

TEST(WhatIfCollector, InvariantCheckerCatchesCorruption)
{
    const auto compiled =
        compileTransfers(Topology::makeNode(), contendedTransfers());
    ASSERT_TRUE(compiled.has_value());

    WhatIfCollector collector;
    collector.setSchedule(*compiled);
    Json doc = collector.report();
    ASSERT_TRUE(checkWhatIfInvariants(doc));

    // Break one lever's delta/projected consistency.
    ASSERT_GT(doc["levers"].size(), 0u);
    Json levers = Json::array();
    for (std::size_t i = 0; i < doc["levers"].size(); ++i) {
        Json lever = doc["levers"].at(i);
        if (i == 0)
            lever.set("delta_cycles",
                      Json(lever["delta_cycles"].number() + 1.0));
        levers.push(std::move(lever));
    }
    doc.set("levers", std::move(levers));
    std::string why;
    EXPECT_FALSE(checkWhatIfInvariants(doc, &why));
    EXPECT_NE(why.find("delta"), std::string::npos) << why;
}

} // namespace
} // namespace tsm
