/**
 * @file
 * Negative-path coverage of the strict scenario parser: every defect
 * class in ISSUE's checklist — unknown keys, out-of-range chip ids,
 * overlapping flow ids, zero-length tensors, malformed documents —
 * must fail with a distinct, actionable message (all prefixed
 * "scenario: " so bench loaders can print them verbatim and exit 2) —
 * and scenarios built in code get the same diagnoses back from the
 * run entry points instead of aborting.
 */

#include <gtest/gtest.h>

#include <string>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "trace/session.hh"

namespace tsm {
namespace {

/** A minimal valid document to mutate from. */
const char *kValid = R"({
  "schema": "tsm-scenario-v1",
  "name": "t",
  "flows": [
    {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 4}}
  ]
})";

std::string
errorOf(const std::string &text)
{
    Scenario sc;
    std::string error;
    EXPECT_FALSE(parseScenario(text, sc, &error)) << text;
    EXPECT_EQ(error.rfind("scenario: ", 0), 0u)
        << "error lacks the scenario: prefix: " << error;
    return error;
}

void
expectFails(const std::string &text, const std::string &needle)
{
    const std::string error = errorOf(text);
    EXPECT_NE(error.find(needle), std::string::npos)
        << "expected \"" << needle << "\" in: " << error;
}

TEST(ScenarioParse, ValidMinimalDocument)
{
    Scenario sc;
    std::string error;
    ASSERT_TRUE(parseScenario(kValid, sc, &error)) << error;
    EXPECT_EQ(sc.name, "t");
    EXPECT_EQ(sc.flows.size(), 1u);
    EXPECT_EQ(sc.flows[0].tensor.vectors, 4u);
}

TEST(ScenarioParse, InvalidJsonIsDiagnosed)
{
    expectFails("{ not json", "invalid JSON");
}

TEST(ScenarioParse, NonObjectDocument)
{
    expectFails("[1, 2]", "document must be a JSON object");
}

TEST(ScenarioParse, MissingSchema)
{
    expectFails(R"({"name": "t", "flows": []})",
                "missing required key \"schema\"");
}

TEST(ScenarioParse, WrongSchema)
{
    expectFails(
        R"({"schema": "tsm-scenario-v9", "name": "t", "flows": []})",
        "schema is \"tsm-scenario-v9\", expected \"tsm-scenario-v1\"");
}

TEST(ScenarioParse, UnknownTopLevelKeyIsNamed)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
                    "flowz": []})",
                "unknown key \"flowz\" in document");
}

TEST(ScenarioParse, UnknownFlowKeyNamesTheElement)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 4}},
        {"id": 2, "src": 1, "dst": 2, "tensor": {"vectors": 4},
         "colour": "red"}
    ]})",
                "unknown key \"colour\" in flow[1]");
}

TEST(ScenarioParse, MissingName)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 4}}]})",
                "non-empty \"name\"");
}

TEST(ScenarioParse, NoTraffic)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t"})",
                "declares no traffic");
}

TEST(ScenarioParse, ZeroLengthTensor)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 0}}]})",
                "zero-length tensor");
}

TEST(ScenarioParse, ZeroLengthShapeTensor)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1,
         "tensor": {"shape": [0, 8], "dtype": "fp16"}}]})",
                "zero-length tensor");
}

TEST(ScenarioParse, TensorNeedsExactlyOneForm)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1,
         "tensor": {"vectors": 4, "shape": [2, 2]}}]})",
                "both \"vectors\" and \"shape\"");
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {}}]})",
                "either \"vectors\" or \"shape\"");
}

TEST(ScenarioParse, BadDtype)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1,
         "tensor": {"shape": [4, 4], "dtype": "fp64"}}]})",
                "dtype \"fp64\" is not one of fp16/fp32/int8");
}

TEST(ScenarioParse, ShapeResolvesToCeilOfVectorBytes)
{
    // 100 x 100 fp16 = 20000 B = 62.5 vectors -> 63.
    Scenario sc;
    std::string error;
    ASSERT_TRUE(parseScenario(
        R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
            {"id": 1, "src": 0, "dst": 1,
             "tensor": {"shape": [100, 100], "dtype": "fp16"}}]})",
        sc, &error))
        << error;
    EXPECT_EQ(sc.flows[0].tensor.vectors, 63u);
    EXPECT_TRUE(sc.flows[0].tensor.hasShape);
}

TEST(ScenarioParse, TensorLargerThanOneSramIsRejected)
{
    // One TSP holds 220 MiB = 720,896 vectors; a tensor past that
    // cannot exist on its source chip, whichever key sizes it.
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1,
         "tensor": {"vectors": 4000000000}}]})",
                "flow[0] tensor key \"vectors\" asks for 4000000000 "
                "vectors, more than one TSP's SRAM holds (720896 "
                "vectors)");
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 720897}}]})",
                "key \"vectors\" asks for 720897 vectors");
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1,
         "tensor": {"shape": [100000, 100000], "dtype": "fp32"}}]})",
                "flow[0] tensor key \"shape\" asks for 100000 x 100000 "
                "fp32, more than one TSP's SRAM holds");
    // 2^62 x 8 bytes wraps a 64-bit product to zero.
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1,
         "tensor": {"shape": [4611686018427387904, 8],
                    "dtype": "int8"}}]})",
                "key \"shape\" asks for 4611686018427387904 x 8 int8");
    // Collectives and patterns size each participant's tensor.
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
        "collectives": [{"op": "broadcast", "vectors": 4000000000}]})",
                "collective[0] key \"vectors\" asks for 4000000000 "
                "vectors per participant");
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
        "patterns": [{"kind": "uniform-random",
                      "vectors": 2000000000}]})",
                "pattern[0] key \"vectors\" asks for 2000000000 vectors "
                "per flow");
}

TEST(ScenarioParse, OutOfRangeChipNamesTopology)
{
    const std::string error =
        errorOf(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
            {"id": 1, "src": 0, "dst": 11,
             "tensor": {"vectors": 4}}]})");
    EXPECT_NE(error.find("dst chip 11 out of range"), std::string::npos)
        << error;
    EXPECT_NE(error.find("8 TSPs"), std::string::npos) << error;
}

TEST(ScenarioParse, SelfLoopFlow)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 2, "dst": 2, "tensor": {"vectors": 4}}]})",
                "src == dst");
}

TEST(ScenarioParse, OverlappingFlowIds)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 3, "src": 0, "dst": 1, "tensor": {"vectors": 4}},
        {"id": 3, "src": 1, "dst": 2, "tensor": {"vectors": 4}}]})",
                "flow id 3 is used twice");
}

TEST(ScenarioParse, CollectiveCollidingWithFlowIds)
{
    // broadcast from root 0 on a node lowers to flows 5..11, which
    // overlaps the explicit flow 6.
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
        "flows": [
            {"id": 6, "src": 0, "dst": 1, "tensor": {"vectors": 4}}],
        "collectives": [
            {"op": "broadcast", "root": 0, "vectors": 2,
             "first_flow": 5}]})",
                "is used twice");
}

TEST(ScenarioParse, FlowIdZeroAndReservedIdsRejected)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 0, "src": 0, "dst": 1, "tensor": {"vectors": 4}}]})",
                "flow[0] id must be in 1..");
}

TEST(ScenarioParse, RingRejectsNodeCollectives)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
        "topology": {"kind": "ring", "size": 6},
        "collectives": [{"op": "reduce_scatter", "vectors": 2}]})",
                "needs a node-based topology");
}

TEST(ScenarioParse, TopologyBounds)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
        "topology": {"kind": "ring", "size": 2}, "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 4}}]})",
                "\"ring\" needs size in 3..64");
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
        "topology": {"kind": "mesh"}, "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 4}}]})",
                "not one of node/ring/single_level/two_level/system");
}

TEST(ScenarioParse, BadMbe)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
        "mbe": 1.5, "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 4}}]})",
                "mbe must be in [0, 1]");
}

TEST(ScenarioParse, BadRole)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
        {"id": 1, "src": 0, "dst": 1, "tensor": {"vectors": 4},
         "role": "midground"}]})",
                "role \"midground\" is not");
}

TEST(ScenarioParse, BadPatternKind)
{
    expectFails(R"({"schema": "tsm-scenario-v1", "name": "t",
        "patterns": [{"kind": "tornado", "vectors": 4}]})",
                "kind \"tornado\" is not a known traffic pattern");
}

TEST(ScenarioParse, OversubscriptionIsDiagnosedNotPanicked)
{
    // 7 simultaneous 64-vector incast flows through one receiver on a
    // minimal-path-only policy exhaust its stream registers; the
    // parser must say so instead of letting the program builder panic.
    std::string doc = R"({"schema": "tsm-scenario-v1", "name": "t",
        "ssn": {"max_extra_hops": 0, "max_paths": 1},
        "flows": [)";
    for (int f = 1; f <= 7; ++f) {
        if (f > 1)
            doc += ",";
        doc += "{\"id\": " + std::to_string(f) + ", \"src\": " +
               std::to_string(f) +
               ", \"dst\": 0, \"tensor\": {\"vectors\": 200}}";
    }
    doc += "]}";
    Scenario sc;
    std::string error;
    if (!parseScenario(doc, sc, &error))
        EXPECT_NE(error.find("oversubscribes the machine"),
                  std::string::npos)
            << error;
    // (If the spill path absorbs it, the scenario is simply valid —
    // the property the test pins is "never panic".)
}

TEST(ScenarioParse, LoadScenarioFileReportsMissingPath)
{
    Scenario sc;
    std::string error;
    EXPECT_FALSE(
        loadScenarioFile("/nonexistent/nope.json", sc, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(ScenarioParse, DistinctMessagesPerDefectClass)
{
    // The checklist's "distinct actionable messages" claim, literally:
    // each defect class yields a different diagnosis.
    const std::string unknown =
        errorOf(R"({"schema": "tsm-scenario-v1", "name": "t",
                    "flowz": []})");
    const std::string range =
        errorOf(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
            {"id": 1, "src": 0, "dst": 11,
             "tensor": {"vectors": 4}}]})");
    const std::string overlap =
        errorOf(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
            {"id": 3, "src": 0, "dst": 1, "tensor": {"vectors": 4}},
            {"id": 3, "src": 1, "dst": 2,
             "tensor": {"vectors": 4}}]})");
    const std::string zero =
        errorOf(R"({"schema": "tsm-scenario-v1", "name": "t", "flows": [
            {"id": 1, "src": 0, "dst": 1,
             "tensor": {"vectors": 0}}]})");
    EXPECT_NE(unknown, range);
    EXPECT_NE(unknown, overlap);
    EXPECT_NE(unknown, zero);
    EXPECT_NE(range, overlap);
    EXPECT_NE(range, zero);
    EXPECT_NE(overlap, zero);
}

/** One explicit flow on the default 8-TSP node, built in code. */
Scenario
codeBuiltScenario(TspId src, TspId dst)
{
    Scenario sc;
    sc.name = "code_built";
    sc.flows.emplace_back();
    sc.flows[0].id = 1;
    sc.flows[0].src = src;
    sc.flows[0].dst = dst;
    sc.flows[0].tensor.vectors = 4;
    return sc;
}

/** Both run entry points return the diagnosis instead of aborting. */
void
expectDiagnosed(const Scenario &sc, const std::string &needle)
{
    const ScenarioExecution exec = executeScenario(sc);
    EXPECT_NE(exec.error.find(needle), std::string::npos) << exec.error;
    EXPECT_TRUE(exec.journal.empty());

    TraceSession session;
    const ScenarioRunResult run = runScenario(session, sc);
    EXPECT_EQ(run.error, exec.error);
    EXPECT_EQ(run.flitsDelivered, 0u);
}

TEST(ScenarioCompile, TransferToSelfIsDiagnosedNotAborted)
{
    expectDiagnosed(codeBuiltScenario(2, 2), "src == dst");
}

TEST(ScenarioCompile, OutOfRangeChipIsDiagnosedNotAborted)
{
    expectDiagnosed(codeBuiltScenario(0, 99), "dst chip 99 out of range");
}

TEST(ScenarioCompile, HandBuiltTransferToSelfIsDiagnosed)
{
    const TensorTransfer self{.flow = 1, .src = 3, .dst = 3, .vectors = 1};
    std::string error;
    EXPECT_FALSE(compileTransfers(Topology::makeNode(), {self}, {}, &error));
    EXPECT_NE(error.find("does not cross a link"), std::string::npos)
        << error;
}

TEST(ScenarioCompile, HandBuiltRepeatedFlowIdIsDiagnosed)
{
    const TensorTransfer a{.flow = 4, .src = 0, .dst = 1, .vectors = 1};
    const TensorTransfer b{.flow = 4, .src = 2, .dst = 3, .vectors = 1};
    std::string error;
    EXPECT_FALSE(compileTransfers(Topology::makeNode(), {a, b}, {}, &error));
    EXPECT_NE(error.find("flow id 4 is used twice (transfers 0 and 1)"),
              std::string::npos)
        << error;
}

TEST(ScenarioCompile, ScheduleBreakingAnInvariantIsDiagnosed)
{
    // No known input makes the scheduler emit a bad schedule, so the
    // check every compile runs is driven with a corrupted copy.
    const TensorTransfer t{.flow = 1, .src = 0, .dst = 1, .vectors = 2};
    std::string error;
    const auto compiled =
        compileTransfers(Topology::makeNode(), {t}, {}, &error);
    ASSERT_TRUE(compiled) << error;
    EXPECT_TRUE(checkSchedule(compiled->schedule, compiled->topo, &error));

    NetworkSchedule bad = compiled->schedule;
    bad.vectors[1].hops = bad.vectors[0].hops; // both in one window
    EXPECT_FALSE(checkSchedule(bad, compiled->topo, &error));
    EXPECT_EQ(error.rfind("scenario: schedule breaks an SSN invariant "
                          "(flow 1 seq 1: serialization window at cycle 0 "
                          "on link ",
                          0),
              0u)
        << error;
}

} // namespace
} // namespace tsm
