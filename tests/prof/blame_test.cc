/**
 * Contention-attribution invariants (prof/blame.hh):
 *
 *  - exactness: every transfer's blame shares (flows + local + margin)
 *    sum *exactly* to the profiler's waitPs for that transfer, and
 *    every link's blamed wait reconciles with the profiler's
 *    independently kept queue-delay histogram sum;
 *  - determinism: two executions of the same scenario emit
 *    byte-identical tsm-blame-v1 documents;
 *  - non-perturbation: attaching the BlameSink never changes the
 *    journal — blame is observation, not simulation;
 *  - the document checker catches tampered shares and rejects foreign
 *    documents instead of asserting on them.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "prof/blame.hh"
#include "prof/profiler.hh"
#include "runtime/machine.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "trace/journal.hh"
#include "trace/session.hh"

namespace tsm {
namespace {

TensorTransfer
makeTransfer(FlowId flow, TspId src, TspId dst, std::uint32_t vectors)
{
    TensorTransfer t;
    t.flow = flow;
    t.src = src;
    t.dst = dst;
    t.vectors = vectors;
    return t;
}

/** A four-sender incast: guaranteed cross-flow contention at TSP 0. */
std::vector<TensorTransfer>
incastTransfers()
{
    return {makeTransfer(1, 1, 0, 24), makeTransfer(2, 2, 0, 24),
            makeTransfer(3, 3, 0, 24), makeTransfer(4, 4, 0, 24)};
}

/** Run the incast (seed 3) with `observers` attached, then finish them. */
void
runIncast(const std::vector<Observer *> &observers,
          const std::string &bench = "blame_test")
{
    const auto compiled =
        compileTransfers(Topology::makeNode(), incastTransfers());
    Machine(compiled.value(), 3).run(observers, bench);
    for (Observer *o : observers)
        o->finish();
}

/** The same incast as a scenario document, for executeScenario. */
Scenario
incastScenario()
{
    Scenario sc;
    sc.name = "blame_test_incast";
    sc.seed = 3;
    for (const TensorTransfer &t : incastTransfers()) {
        ScenarioFlow f;
        f.id = t.flow;
        f.src = t.src;
        f.dst = t.dst;
        f.tensor.vectors = t.vectors;
        sc.flows.push_back(f);
    }
    return sc;
}

TEST(Blame, SharesSumExactlyToProfilerWaits)
{
    ProfilerSink prof;
    BlameCollector blame;
    runIncast({&prof, &blame.sink()});

    const BlameSink &sink = blame.sink();
    ASSERT_FALSE(sink.transfers().empty());
    ASSERT_FALSE(sink.links().empty());

    // Per transfer: the decomposition tiles the profiler's wait.
    for (const auto &[span, tb] : sink.transfers()) {
        ASSERT_TRUE(tb.closed);
        ASSERT_TRUE(prof.transfers().count(span));
        EXPECT_EQ(tb.waitPs, prof.transfers().at(span).waitPs);
        EXPECT_EQ(tb.shares.totalPs(), tb.waitPs)
            << "flow " << tb.flow << " seq " << tb.seq;
    }

    // Per link: blamed wait == the profiler's queue-delay sum, and the
    // shares tile it.
    for (const auto &[link, lb] : sink.links()) {
        const Log2Histogram *h = prof.queueDelay(link);
        ASSERT_TRUE(h != nullptr) << "link " << link;
        EXPECT_EQ(lb.waitPs, Tick(h->sum())) << "link " << link;
        EXPECT_EQ(lb.shares.totalPs(), lb.waitPs) << "link " << link;
    }

    // The run totals tile too, and contention really happened (an
    // all-margin run would mean the attribution path is dead).
    Tick linkWait = 0, flowBlame = 0;
    for (const auto &[link, lb] : sink.links()) {
        linkWait += lb.waitPs;
        for (const auto &[flow, ps] : lb.shares.flowPs)
            flowBlame += ps;
    }
    EXPECT_EQ(linkWait, sink.totalWaitPs());
    EXPECT_GT(sink.totalWaitPs(), 0u);
    EXPECT_GT(flowBlame, 0u);
}

TEST(Blame, ReportIsByteDeterministic)
{
    const ScenarioExecution a = executeScenario(incastScenario());
    const ScenarioExecution b = executeScenario(incastScenario());
    ASSERT_FALSE(a.blameText.empty());
    EXPECT_EQ(a.blameText, b.blameText);
    EXPECT_EQ(a.journal, b.journal);

    std::string why;
    EXPECT_TRUE(a.blameExact(&why)) << why;
}

TEST(Blame, SinkDoesNotPerturbJournal)
{
    auto journalOf = [](bool withBlame) {
        std::ostringstream text;
        JournalSink journal(text);
        BlameCollector blame;
        std::vector<Observer *> sinks{&journal};
        if (withBlame)
            sinks.push_back(&blame.sink());
        runIncast(sinks);
        return text.str();
    };
    const std::string without = journalOf(false);
    const std::string with = journalOf(true);
    ASSERT_FALSE(without.empty());
    EXPECT_EQ(without, with);
}

TEST(Blame, CheckerCatchesTamperedShares)
{
    ScenarioExecution exec = executeScenario(incastScenario());
    ASSERT_TRUE(checkBlameExactness(exec.blame));

    // Inflate the run total: the links no longer reconcile with it.
    Json tampered = exec.blame;
    Json totals = tampered["totals"];
    totals.set("wait_ps",
               Json(std::uint64_t(totals["wait_ps"].integer()) + 1));
    tampered.set("totals", totals);
    std::string why;
    EXPECT_FALSE(checkBlameExactness(tampered, &why));
    EXPECT_FALSE(why.empty());
}

TEST(Blame, CheckerRejectsForeignDocuments)
{
    std::string why;
    EXPECT_FALSE(checkBlameExactness(Json(), &why));
    EXPECT_FALSE(why.empty());

    Json wrong = Json::object();
    wrong.set("schema", Json("tsm-timeline-v1"));
    EXPECT_FALSE(checkBlameExactness(wrong));

    // Right schema but missing sections must fail, not assert.
    Json hollow = Json::object();
    hollow.set("schema", Json(kBlameSchema));
    EXPECT_FALSE(checkBlameExactness(hollow));
}

TEST(Blame, SummaryRendersIdentityAndSections)
{
    BlameCollector collector;
    collector.setBench("blame_test_incast");
    collector.setSeed(3);
    runIncast({&collector.sink()}, "blame_test_incast");
    const Json report = collector.report();
    EXPECT_EQ(report["schema"].str(), kBlameSchema);
    EXPECT_EQ(report["source"].str(), "ssn");

    const std::string summary = renderBlameSummary(report);
    EXPECT_NE(summary.find("blame_test_incast"), std::string::npos);
    EXPECT_NE(summary.find("wait decomposed"), std::string::npos);
    EXPECT_NE(summary.find("top blamed flow pairs"), std::string::npos);
}

} // namespace
} // namespace tsm
