/**
 * @file
 * Golden-file pins for the checked-in scenario documents: each ported
 * figure scenario must (1) be stored in canonical serialized form,
 * and (2) produce a byte-identical tsm-journal-v1 stream to the
 * hand-built C++ transfer list it replaced — the porting-was-lossless
 * proof the determinism layer makes checkable.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/machine.hh"
#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "trace/journal.hh"

namespace tsm {
namespace {

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

Scenario
loadChecked(const std::string &path)
{
    Scenario sc;
    std::string error;
    EXPECT_TRUE(loadScenarioFile(path, sc, &error)) << error;
    return sc;
}

/** Journal of a hand-built transfer list, as the pre-port bench ran. */
std::string
journalOfTransfers(const Topology &topo,
                   const std::vector<TensorTransfer> &transfers,
                   const std::string &bench, std::uint64_t seed = 1,
                   SsnConfig ssn = {})
{
    std::ostringstream text;
    JournalSink sink(text);
    const auto compiled = compileTransfers(topo, transfers, ssn);
    Machine(compiled.value(), seed).run({&sink}, bench);
    sink.finish();
    return text.str();
}

void
expectCanonicalOnDisk(const std::string &path)
{
    const Scenario sc = loadChecked(path);
    EXPECT_EQ(dumpScenario(sc), fileBytes(path))
        << path << " is not stored in canonical serialized form";
}

TEST(ScenarioGolden, Fig08FileMatchesPrePortTransfers)
{
    const std::string path =
        TSM_SCENARIO_DIR "/fig08_ssn_vs_hw_contention.json";
    expectCanonicalOnDisk(path);

    // The exact flows the bench hand-built before the port: four
    // contending senders onto TSP 2 inside the triple-ring node,
    // seed 6, two extra hops of non-minimal spreading.
    const Topology node = Topology::makeNode(NodeWiring::TripleRing);
    std::vector<TensorTransfer> transfers;
    for (unsigned f = 0; f < 4; ++f) {
        TensorTransfer t;
        t.flow = f + 1;
        t.src = TspId(f < 2 ? f : f + 1); // 0, 1, 3, 4
        t.dst = 2;
        t.vectors = 256;
        transfers.push_back(t);
    }
    const std::string golden =
        journalOfTransfers(node, transfers, "fig08_ssn_vs_hw_contention",
                           6, {.maxExtraHops = 2});

    const ScenarioExecution exec = executeScenario(loadChecked(path));
    EXPECT_FALSE(exec.journal.empty());
    EXPECT_EQ(exec.journal, golden);
}

TEST(ScenarioGolden, Fig10FileMatchesPrePortTransfers)
{
    const std::string path =
        TSM_SCENARIO_DIR "/fig10_nonminimal_routing.json";
    expectCanonicalOnDisk(path);

    // The figure's scheduler cross-check transfer: 64 KB from TSP 0
    // to TSP 1 spread across the full mesh's non-minimal paths.
    const Topology node = Topology::makeNode();
    TensorTransfer t;
    t.flow = 1;
    t.src = 0;
    t.dst = 1;
    t.vectors = std::uint32_t(bytesToVectors(64 * kKiB));
    const std::string golden =
        journalOfTransfers(node, {t}, "fig10_nonminimal_routing");

    const ScenarioExecution exec = executeScenario(loadChecked(path));
    EXPECT_FALSE(exec.journal.empty());
    EXPECT_EQ(exec.journal, golden);
}

TEST(ScenarioGolden, Fig14FileMatchesPrePortTransfers)
{
    const std::string path =
        TSM_SCENARIO_DIR "/fig14_distributed_matmul.json";
    expectCanonicalOnDisk(path);

    // The exact loop the bench ran before the port.
    const Topology node = Topology::makeNode();
    std::vector<TensorTransfer> transfers;
    for (unsigned f = 1; f < node.numTsps(); ++f) {
        TensorTransfer t;
        t.flow = f;
        t.src = TspId(f);
        t.dst = 0;
        t.vectors = 48;
        transfers.push_back(t);
    }
    const std::string golden = journalOfTransfers(
        node, transfers, "fig14_distributed_matmul");

    const ScenarioExecution exec = executeScenario(loadChecked(path));
    EXPECT_FALSE(exec.journal.empty());
    EXPECT_EQ(exec.journal, golden);
}

TEST(ScenarioGolden, Fig17FileMatchesPrePortTransfers)
{
    const std::string path = TSM_SCENARIO_DIR "/fig17_bert_latency.json";
    expectCanonicalOnDisk(path);

    const Topology node = Topology::makeNode();
    std::vector<TensorTransfer> transfers;
    for (unsigned hop = 0; hop < 3; ++hop) {
        TensorTransfer t;
        t.flow = FlowId(hop + 1);
        t.src = TspId(hop);
        t.dst = TspId(hop + 1);
        t.vectors = 64;
        t.earliest = Cycle(hop) * 20000;
        transfers.push_back(t);
    }
    const std::string golden =
        journalOfTransfers(node, transfers, "fig17_bert_latency");

    const ScenarioExecution exec = executeScenario(loadChecked(path));
    EXPECT_FALSE(exec.journal.empty());
    EXPECT_EQ(exec.journal, golden);
}

TEST(ScenarioGolden, Fig19FileMatchesPrePortTransfers)
{
    const std::string path = TSM_SCENARIO_DIR "/fig19_cholesky.json";
    expectCanonicalOnDisk(path);

    const Topology node = Topology::makeNode();
    std::vector<TensorTransfer> transfers;
    FlowId flow = 1;
    for (unsigned round = 0; round < 3; ++round) {
        const TspId owner = TspId(round);
        const std::uint32_t panel = 48 - 12 * round;
        for (TspId t = 0; t < 4; ++t) {
            if (t == owner)
                continue;
            TensorTransfer x;
            x.flow = flow++;
            x.src = owner;
            x.dst = t;
            x.vectors = panel;
            x.earliest = Cycle(round) * 15000;
            transfers.push_back(x);
        }
    }
    const std::string golden =
        journalOfTransfers(node, transfers, "fig19_cholesky");

    const ScenarioExecution exec = executeScenario(loadChecked(path));
    EXPECT_FALSE(exec.journal.empty());
    EXPECT_EQ(exec.journal, golden);
}

TEST(ScenarioGolden, TrafficFilesMatchGeneratedTraffic)
{
    // Every checked-in traffic scenario lowers to exactly the
    // transfer list generateTraffic produced for the pre-port bench.
    for (const char *prefix : {"node_", "system2_"}) {
        const std::uint32_t vectors =
            std::string(prefix) == "node_" ? 64 : 32;
        for (TrafficPattern p : allTrafficPatterns()) {
            const std::string path = std::string(TSM_SCENARIO_DIR) +
                                     "/traffic/" + prefix +
                                     trafficPatternName(p) + ".json";
            expectCanonicalOnDisk(path);
            const Scenario sc = loadChecked(path);
            const Topology topo = sc.topology.build();
            const auto lowered = lowerScenario(sc, topo);
            const auto expected = generateTraffic(topo, p, vectors, 7);
            ASSERT_EQ(lowered.transfers.size(), expected.size())
                << path;
            for (std::size_t i = 0; i < expected.size(); ++i) {
                EXPECT_EQ(lowered.transfers[i].flow, expected[i].flow);
                EXPECT_EQ(lowered.transfers[i].src, expected[i].src);
                EXPECT_EQ(lowered.transfers[i].dst, expected[i].dst);
                EXPECT_EQ(lowered.transfers[i].vectors,
                          expected[i].vectors);
                EXPECT_EQ(lowered.transfers[i].earliest,
                          expected[i].earliest);
            }
        }
    }
}

TEST(ScenarioGolden, ExecuteScenarioWaterfallsAreExact)
{
    // The fuzzer's waterfall invariant holds on the real figure
    // scenarios too, not just generated ones.
    for (const char *name :
         {"/fig08_ssn_vs_hw_contention.json",
          "/fig10_nonminimal_routing.json",
          "/fig14_distributed_matmul.json", "/fig17_bert_latency.json",
          "/fig19_cholesky.json"}) {
        const ScenarioExecution exec = executeScenario(
            loadChecked(std::string(TSM_SCENARIO_DIR) + name));
        EXPECT_TRUE(exec.allSpansClosed()) << name;
        EXPECT_TRUE(exec.waterfallsExact()) << name;
        std::string why;
        EXPECT_TRUE(exec.blameExact(&why)) << name << ": " << why;
    }
}

} // namespace
} // namespace tsm
