#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "hostprof/hostprof.hh"
#include "prof/report.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"

namespace tsm {
namespace {

/** A small but non-trivial scenario: 3-stage pipeline on one node. */
const char *kScenarioText = R"({
  "schema": "tsm-scenario-v1",
  "name": "hostprof_determinism",
  "seed": 11,
  "topology": {"kind": "node", "wiring": "full_mesh"},
  "flows": [
    {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 24}, "start": 0},
    {"id": 2, "src": 1, "dst": 2, "tensor": {"vectors": 24},
     "start": 15000},
    {"id": 3, "src": 2, "dst": 3, "tensor": {"vectors": 24},
     "start": 30000}
  ]
})";

Scenario
loadScenario()
{
    Scenario sc;
    std::string error;
    EXPECT_TRUE(parseScenario(kScenarioText, sc, &error)) << error;
    return sc;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream text;
    text << f.rdbuf();
    return text.str();
}

TEST(HostprofDeterminism, JournalIdenticalWithAndWithoutProfiler)
{
    const Scenario sc = loadScenario();
    HostProfiler hp;
    const ScenarioExecution profiled = executeScenario(sc, {}, &hp);
    const ScenarioExecution bare = executeScenario(sc);
    ASSERT_FALSE(profiled.journal.empty());
    EXPECT_EQ(profiled.journal, bare.journal);
    EXPECT_EQ(profiled.makespan, bare.makespan);
    EXPECT_EQ(profiled.flitsDelivered, bare.flitsDelivered);
    // And the profiler actually observed the run it didn't perturb.
    EXPECT_GT(hp.events(), 0u);
}

TEST(HostprofDeterminism, NonTimingFieldsAgreeAcrossRuns)
{
    const Scenario sc = loadScenario();
    HostProfiler a, b;
    executeScenario(sc, {}, &a);
    executeScenario(sc, {}, &b);

    EXPECT_EQ(a.events(), b.events());
    EXPECT_EQ(a.simPs(), b.simPs());
    EXPECT_EQ(a.runs(), b.runs());
    EXPECT_EQ(a.queue().inserts, b.queue().inserts);
    EXPECT_EQ(a.queue().maxDepth, b.queue().maxDepth);
    EXPECT_EQ(a.queue().batches, b.queue().batches);
    EXPECT_EQ(a.queue().maxBatch, b.queue().maxBatch);
    for (unsigned k = 0; k < kNumEventKinds; ++k) {
        EXPECT_EQ(a.kind(EventKind(k)).events, b.kind(EventKind(k)).events)
            << eventKindName(EventKind(k));
        EXPECT_EQ(a.kind(EventKind(k)).allocs, b.kind(EventKind(k)).allocs)
            << eventKindName(EventKind(k));
    }
}

TEST(HostprofDeterminism, ProfileReportBytesUnchangedByHostprof)
{
    const Scenario sc = loadScenario();
    const std::string dir = ::testing::TempDir();
    const std::string bare_path = dir + "/hostprof_det_bare.json";
    const std::string prof_path = dir + "/hostprof_det_prof.json";
    const std::string hp_path = dir + "/hostprof_det_hp.json";

    std::uint64_t digestBare = 0, digestProf = 0;
    {
        TraceOptions opts;
        opts.reportPath = bare_path;
        opts.digest = true;
        TraceSession session(std::move(opts));
        runScenario(session, sc);
        digestBare = session.digest();
        session.finish();
    }
    {
        TraceOptions opts;
        opts.reportPath = prof_path;
        opts.hostprofPath = hp_path;
        opts.digest = true;
        TraceSession session(std::move(opts));
        runScenario(session, sc);
        digestProf = session.digest();
        session.finish();
    }
    const std::string bare = slurp(bare_path);
    ASSERT_FALSE(bare.empty());
    EXPECT_EQ(bare, slurp(prof_path));
    EXPECT_EQ(digestBare, digestProf);
    // The hostprof document itself was written and is valid.
    std::string error;
    const Json hp = Json::parse(slurp(hp_path), &error);
    ASSERT_FALSE(hp.isNull()) << error;
    EXPECT_EQ(hp["schema"].str(), kHostprofSchema);
    EXPECT_GT(hp["events"].integer(), 0);
}

TEST(HostprofDeterminism, SummaryFooterReflectsHostprofPresence)
{
    const Json report = Json::parse(R"({"schema": "tsm-profile-v1",
                                        "bench": "footer"})",
                                    nullptr);
    const std::string bare = renderProfileSummary(report);
    EXPECT_NE(bare.find("host: n/a"), std::string::npos);

    HostProfiler hp;
    executeScenario(loadScenario(), {}, &hp);
    const Json host = hp.report();
    const std::string footed = renderProfileSummary(report, 5, &host);
    EXPECT_EQ(footed.find("host: n/a"), std::string::npos);
    EXPECT_NE(footed.find("events/s"), std::string::npos);
}

} // namespace
} // namespace tsm
