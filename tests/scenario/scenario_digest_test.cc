/**
 * @file
 * FNV-1a 64-bit pins of the six deterministic documents (journal,
 * profile report, blame, what-if, lanes, timeline) every checked-in
 * scenario produces. These pins are the repository's only regression
 * check on simulated documents: the machine is deterministic, so an
 * exact digest is stronger than any tolerance and needs no checked-in
 * copy of the document. The pins were recorded before the compile, run
 * and observer steps were unified, so they are an oracle independent
 * of the code under test.
 *
 * A new scenario file needs a new row (PinTableCoversEveryScenarioFile
 * fails until it has one). Record it from a build that predates the
 * change under test: run any scenario-driven bench on the file with
 * all six outputs, e.g.
 *
 *   fig18_bert_scaling --scenario=scenarios/NEW.json --journal=n.tsmj \
 *       --report=n.report.json --blame=n.blame.json \
 *       --whatif=n.whatif.json --lanes=n.lanes.json \
 *       --timeline=n.timeline.json
 *
 * and pin the FNV-1a 64 (offset basis 0xcbf29ce484222325, prime
 * 0x100000001b3) of each file's bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "scenario/runner.hh"
#include "scenario/scenario.hh"
#include "trace/digest.hh"
#include "trace/session.hh"

namespace tsm {
namespace {

struct DigestPin
{
    const char *scenario;
    std::uint64_t journal;
    std::uint64_t report;
    std::uint64_t blame;
    std::uint64_t whatif;
    std::uint64_t lanes;
    std::uint64_t timeline;
};

// clang-format off
constexpr DigestPin kPins[] = {
    {"contention_probe.json",
     0x714a96ee45303f6eull, 0x7267954652523284ull, 0x6541c0d00e0db11aull,
     0xc1a8397bcf8724c3ull, 0xb5b402aba6d18db1ull, 0xa4a0ac2a71ae6f60ull},
    {"fig08_ssn_vs_hw_contention.json",
     0x7ec0c03ce10be098ull, 0xf8b3286c780d4952ull, 0xf081e99cc6bf6665ull,
     0xfb212913cd8d0f0cull, 0x118da79f428de4c9ull, 0x92b47c3fcb91f08full},
    {"fig10_nonminimal_routing.json",
     0xe5ef4e63296b7bf8ull, 0x5188ec7eb0fcddb5ull, 0x246ac0bc10bcfdb9ull,
     0xe8e4b56334d628f1ull, 0xdebf316816705c44ull, 0x7a49f321830643e8ull},
    {"fig14_distributed_matmul.json",
     0x2bddb2214cbc2c47ull, 0x22ba539b151bed49ull, 0xd31f907e0dc19dccull,
     0xbd8223ebac8d9572ull, 0x1d893ed59530d1c9ull, 0x21ef9e77f3d764ecull},
    {"fig16_allreduce.json",
     0xd092d34c2920fdd3ull, 0xb869648a89dd0400ull, 0x6f0f6b931ce4a6a1ull,
     0x401a7a1dd8067dbeull, 0x27136baa8a362231ull, 0x6fb5bca494f50aacull},
    {"fig17_bert_latency.json",
     0xc203ab9d07d1c7cbull, 0x95f0d45550e0a1e5ull, 0xa98448b6ab8a2b3bull,
     0xa625bfc2a283f14full, 0x8df33ddc13eba7b3ull, 0x0bb04e7f84a4e2caull},
    {"fig18_bert_scaling_256.json",
     0x1378dc9e4543f54eull, 0xdefc98b0554495efull, 0x673bef07fe0bb726ull,
     0xb4e8ff832544e15dull, 0x7e63b1bbe96545a7ull, 0x7cd1b786e326716eull},
    {"fig19_cholesky.json",
     0x5f92eddbac65113full, 0xf966391e940fc4d1ull, 0x02d19679aa377ce5ull,
     0x0491c87a3d3252a4ull, 0x576d870490e57241ull, 0x6ecb00e8ba052abaull},
    {"micro_harness.json",
     0x6c470d8702582fc3ull, 0xf716750e4199562full, 0x30d955a7e3a87fdfull,
     0xf90e5a1fb82a2610ull, 0x310216eb0b7d53bcull, 0xec8645da396b62edull},
    {"traffic/node_all-to-one.json",
     0x9d676af8571b5425ull, 0x625aa5102ba186fdull, 0xac56bd56a8cdb7ecull,
     0xe1f6e60d4c629a7dull, 0xa91f2eafd0cf972aull, 0xa370ae0f8d4b8ac1ull},
    {"traffic/node_bit-complement.json",
     0x264e5a1844e38037ull, 0xb17cf0fedf67da88ull, 0x9f1ff2a49cae895full,
     0xfcfa38b7d1cd67cbull, 0xf1c3b437f5f67289ull, 0xf68a65729cba2515ull},
    {"traffic/node_nearest-neighbor.json",
     0x2404d6d7d6de7b69ull, 0x5121475fe702e1f9ull, 0x1ff400a2ab295875ull,
     0xe92ff695b946743cull, 0x5f6053e4614863fdull, 0x5b68bc8c46892747ull},
    {"traffic/node_one-to-all.json",
     0x5306583740b8b930ull, 0xe184c3e3a264e58dull, 0x7663ccb2f1d1c65dull,
     0x908e5f7eb47769f7ull, 0xe91e07b96b5f0866ull, 0x13ec24acfa048a68ull},
    {"traffic/node_permutation.json",
     0xf35ed5d78f5b5b5dull, 0x74288000fcd58dffull, 0x57448d130ea1f8b0ull,
     0xe1858d7d57c42575ull, 0x8e7e2ba93b3ebddeull, 0x6c749ed1f206ea8dull},
    {"traffic/node_transpose.json",
     0x401215c9dde39343ull, 0x4acc0ca1a7a384ecull, 0x9e172e86f9b273ecull,
     0x0e99d3995a37e424ull, 0xcded20106c861e08ull, 0xaa6dd0bf9f545a96ull},
    {"traffic/node_uniform-random.json",
     0x24efc4dada3b1617ull, 0x55f87175b91f2f48ull, 0x3b09b53372e3078full,
     0xf61d65a8cc4d2e3dull, 0x40c63b65b9b64b4bull, 0x6545afb475775e1dull},
    {"traffic/system2_all-to-one.json",
     0xbc487c6174131ba8ull, 0xc16a83595fe51b7aull, 0xa22d107145d6701full,
     0xbb0e67d69c246a79ull, 0xeeef526477a91957ull, 0x8ec3a9c5c02085d5ull},
    {"traffic/system2_bit-complement.json",
     0x07755d85d39a8f20ull, 0x05ca5d9ae125be2bull, 0xd379715363524167ull,
     0x87d8d440bfae6de1ull, 0x193b77ec6d341be5ull, 0xaf50f4773af73c1eull},
    {"traffic/system2_nearest-neighbor.json",
     0x5aa0dfee2fb671baull, 0x43114c35e4ec03ddull, 0x08fc2fd69d9238daull,
     0x764ab7fae5fa9843ull, 0xe72d8b5751fd199cull, 0xc6713f090b4fed3dull},
    {"traffic/system2_one-to-all.json",
     0x0bf39860c2d5a320ull, 0xa8e5e37211549ba2ull, 0xb65c83db7fb1c322ull,
     0x7447b0b80db13e80ull, 0xd053c8a936852bdcull, 0x7c38134e0cf84ce5ull},
    {"traffic/system2_permutation.json",
     0x599e6886a711483cull, 0x9d431d58e7d10392ull, 0x0d1dc9bf24e5cd37ull,
     0x4a681bce144b8b60ull, 0x2ee4db097233f698ull, 0xb01d5f872e26acf8ull},
    {"traffic/system2_transpose.json",
     0x1dec99abbd449a8cull, 0x82ca6e08f6dcca2bull, 0xf4acfb9411fc0310ull,
     0xb8bc9f1587fadb1eull, 0xd5750e7a82a0c72eull, 0x42b8b4e97c69e62eull},
    {"traffic/system2_uniform-random.json",
     0x67ca8043f75dfab1ull, 0x98cae73cc11c8e6aull, 0xccd855dae89cee21ull,
     0xf66f02d1a4054b91ull, 0x5f49d84206b6be39ull, 0xd2e491ebca5ac06bull},
};
// clang-format on

std::uint64_t
textDigest(const std::string &text)
{
    return fnv1a64(kFnvOffsetBasis, text.data(), text.size());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

std::uint64_t
fileDigest(const std::string &path)
{
    return textDigest(slurp(path));
}

Scenario
loadPinned(const std::string &name)
{
    Scenario sc;
    std::string error;
    EXPECT_TRUE(loadScenarioFile(
        std::string(TSM_SCENARIO_DIR) + "/" + name, sc, &error))
        << error;
    return sc;
}

TEST(ScenarioDigests, EveryCheckedInScenarioMatchesItsPins)
{
    const std::string dir = testing::TempDir() + "/scenario_digest";
    for (const DigestPin &pin : kPins) {
        const Scenario sc = loadPinned(pin.scenario);

        TraceOptions opts;
        opts.journalPath = dir + ".tsmj";
        opts.reportPath = dir + ".report.json";
        opts.blamePath = dir + ".blame.json";
        opts.whatifPath = dir + ".whatif.json";
        opts.lanesPath = dir + ".lanes.json";
        opts.timelinePath = dir + ".timeline.json";
        {
            TraceSession session(opts);
            runScenario(session, sc);
            session.finish();
        }

        const struct
        {
            const char *doc;
            const std::string &path;
            std::uint64_t pinned;
        } docs[] = {
            {"journal", opts.journalPath, pin.journal},
            {"report", opts.reportPath, pin.report},
            {"blame", opts.blamePath, pin.blame},
            {"whatif", opts.whatifPath, pin.whatif},
            {"lanes", opts.lanesPath, pin.lanes},
            {"timeline", opts.timelinePath, pin.timeline},
        };
        for (const auto &d : docs) {
            const std::uint64_t got = fileDigest(d.path);
            EXPECT_EQ(got, d.pinned) << pin.scenario << " " << d.doc
                                     << " digest 0x" << std::hex << got;
            std::remove(d.path.c_str());
        }

        // The fuzzer's in-memory path must capture the same bytes.
        const ScenarioExecution exec = executeScenario(sc);
        EXPECT_EQ(textDigest(exec.journal), pin.journal) << pin.scenario;
        EXPECT_EQ(textDigest(exec.blameText + "\n"), pin.blame)
            << pin.scenario;
        EXPECT_EQ(textDigest(exec.lanesText + "\n"), pin.lanes)
            << pin.scenario;
    }
}

TEST(ScenarioDigests, PinTableCoversEveryScenarioFile)
{
    namespace fs = std::filesystem;
    const fs::path dir(TSM_SCENARIO_DIR);
    std::set<std::string> files;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file() && entry.path().extension() == ".json")
            files.insert(entry.path().lexically_relative(dir).generic_string());
    std::set<std::string> pinned;
    for (const DigestPin &pin : kPins)
        pinned.insert(pin.scenario);
    EXPECT_EQ(files, pinned);
}

TEST(ScenarioDigests, OneChangedDigitBreaksThePin)
{
    const DigestPin *it = std::find_if(
        std::begin(kPins), std::end(kPins), [](const DigestPin &p) {
            return std::string(p.scenario) == "micro_harness.json";
        });
    ASSERT_NE(it, std::end(kPins));
    const DigestPin &pin = *it;
    const std::string dir = testing::TempDir() + "/scenario_tamper";
    TraceOptions opts;
    opts.reportPath = dir + ".report.json";
    opts.timelinePath = dir + ".timeline.json";
    {
        TraceSession session(opts);
        runScenario(session, loadPinned(pin.scenario));
        session.finish();
    }
    std::string report = slurp(opts.reportPath);
    std::remove(opts.reportPath.c_str());
    std::remove(opts.timelinePath.c_str());
    ASSERT_EQ(textDigest(report), pin.report);

    // Change one digit of the report's makespan.
    const std::string key = "\"cycles\": ";
    const std::size_t at = report.find(key);
    ASSERT_NE(at, std::string::npos);
    char &digit = report[at + key.size()];
    digit = digit == '9' ? '8' : char(digit + 1);
    EXPECT_NE(textDigest(report), pin.report);
}

} // namespace
} // namespace tsm
