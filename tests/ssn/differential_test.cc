/**
 * @file
 * Differential tests of the SSN compile path against the test-only
 * reference (reference_scheduler.hh): path enumeration on every
 * (src, dst) pair of several topologies, and schedules, programs and
 * validation reports on every checked-in scenario plus 2,000 generated
 * ones. Outputs must be identical, not merely equivalent. Static blame
 * pits two algorithms against each other: scheduleBlame, recomputed
 * from the library's finished schedule, must equal the blame the
 * reference charged while it placed each vector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "reference_scheduler.hh"
#include "scenario/generator.hh"
#include "scenario/scenario.hh"

namespace tsm {
namespace {

// A sanitizer build runs these tests ~40x slower than a release build,
// so it takes every kStride-th generated seed, and every kStride-th
// source TSP of the large topologies; a release build takes all.
#if defined(__SANITIZE_ADDRESS__)
constexpr unsigned kStride = 16;
#else
constexpr unsigned kStride = 1;
#endif

std::string
hopsMismatch(const std::vector<ScheduledHop> &a,
             const std::vector<ScheduledHop> &b)
{
    if (a.size() != b.size())
        return "hop count " + std::to_string(a.size()) + " vs " +
               std::to_string(b.size());
    for (std::size_t h = 0; h < a.size(); ++h) {
        if (a[h].link != b[h].link || a[h].from != b[h].from ||
            a[h].depart != b[h].depart || a[h].arrive != b[h].arrive)
            return "hop " + std::to_string(h) + " differs";
    }
    return "";
}

/** Empty when the two schedules are identical, else the first difference. */
std::string
scheduleMismatch(const NetworkSchedule &a, const NetworkSchedule &b)
{
    if (a.vectors.size() != b.vectors.size())
        return "vector count " + std::to_string(a.vectors.size()) +
               " vs " + std::to_string(b.vectors.size());
    for (std::size_t i = 0; i < a.vectors.size(); ++i) {
        const ScheduledVector &x = a.vectors[i];
        const ScheduledVector &y = b.vectors[i];
        std::string why = x.flow != y.flow || x.seq != y.seq
                              ? "flow/seq differs"
                              : hopsMismatch(x.hops, y.hops);
        if (!why.empty())
            return "vector " + std::to_string(i) + ": " + why;
    }
    if (a.flows.size() != b.flows.size())
        return "flow summary count differs";
    for (const auto &[flow, x] : a.flows) {
        auto it = b.flows.find(flow);
        if (it == b.flows.end())
            return "flow " + std::to_string(flow) + " missing";
        const FlowSummary &y = it->second;
        if (x.flow != y.flow || x.firstDeparture != y.firstDeparture ||
            x.lastArrival != y.lastArrival || x.vectors != y.vectors ||
            x.pathsUsed != y.pathsUsed || x.earliest != y.earliest)
            return "flow " + std::to_string(flow) + " summary differs";
    }
    if (a.makespan != b.makespan)
        return "makespan differs";
    return "";
}

/** Empty when the two blame accounts are identical. */
std::string
blameMismatch(const ScheduleBlame &p, const ScheduleBlame &q)
{
    if (p.flowPairCycles != q.flowPairCycles)
        return "blame flowPairCycles differs";
    if (p.linkFlowCycles != q.linkFlowCycles)
        return "blame linkFlowCycles differs";
    if (p.flowDelayCycles != q.flowDelayCycles)
        return "blame flowDelayCycles differs";
    if (p.totalDelayCycles != q.totalDelayCycles ||
        p.issueDelayCycles != q.issueDelayCycles)
        return "blame totals differ";
    return "";
}

bool
sameInstr(const Instr &a, const Instr &b)
{
    return a.op == b.op && a.dst == b.dst && a.srcA == b.srcA &&
           a.srcB == b.srcB && a.port == b.port && a.addr == b.addr &&
           a.flow == b.flow && a.seq == b.seq && a.hop == b.hop &&
           a.lastHop == b.lastHop && a.imm == b.imm && a.fimm == b.fimm &&
           a.issueAt == b.issueAt;
}

std::string
programsMismatch(const ProgramSet &a, const ProgramSet &b)
{
    if (a.byChip.size() != b.byChip.size())
        return "chip count differs";
    for (std::size_t c = 0; c < a.byChip.size(); ++c) {
        const auto &x = a.byChip[c].instrs;
        const auto &y = b.byChip[c].instrs;
        if (x.size() != y.size())
            return "tsp" + std::to_string(c) + " instruction count " +
                   std::to_string(x.size()) + " vs " +
                   std::to_string(y.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            if (!sameInstr(x[i], y[i]))
                return "tsp" + std::to_string(c) + " instr " +
                       std::to_string(i) + ": " + x[i].str() + " vs " +
                       y[i].str();
    }
    return "";
}

std::string
reportMismatch(const ValidationReport &a, const ValidationReport &b)
{
    if (a.ok != b.ok || a.windowsChecked != b.windowsChecked ||
        a.firstViolation != b.firstViolation)
        return "report {" + std::to_string(a.ok) + ", " +
               std::to_string(a.windowsChecked) + ", \"" +
               a.firstViolation + "\"} vs {" + std::to_string(b.ok) +
               ", " + std::to_string(b.windowsChecked) + ", \"" +
               b.firstViolation + "\"}";
    return "";
}

/**
 * Lowering both sides' programs with and without memory bases covers
 * the source-read and destination-write branches.
 */
std::string
compareProgramLowering(const NetworkSchedule &s, const Topology &topo,
                       const std::vector<TensorTransfer> &transfers)
{
    std::unordered_map<FlowId, LocalAddr> dst_base, src_base;
    for (const TensorTransfer &t : transfers) {
        dst_base[t.flow] = LocalAddr::unflatten(1024 * (t.flow % 64));
        src_base[t.flow] = LocalAddr::unflatten(65536 + 1024 * (t.flow % 64));
    }
    const std::unordered_map<FlowId, LocalAddr> none;
    for (bool bases : {false, true}) {
        const auto &d = bases ? dst_base : none;
        const auto &r = bases ? src_base : none;
        ProgramSet got, want;
        std::string got_err, want_err;
        const bool got_ok = tryBuildPrograms(s, topo, d, r, got, &got_err);
        const bool want_ok =
            reference::tryBuildPrograms(s, topo, d, r, want, &want_err);
        const std::string tag = bases ? "programs with bases: " : "programs: ";
        if (got_ok != want_ok || got_err != want_err)
            return tag + "result \"" + got_err + "\" vs \"" + want_err + "\"";
        std::string why = programsMismatch(got, want);
        if (!why.empty())
            return tag + why;
    }
    return "";
}

/**
 * Corrupt one hop of a copy of `s` the way a broken scheduler might:
 * shift a departure (usually into a neighbour's window), re-point a
 * hop at another chip or link, or drop an itinerary.
 */
NetworkSchedule
corrupt(const NetworkSchedule &s, const Topology &topo, Rng &rng)
{
    NetworkSchedule c = s;
    if (c.vectors.empty())
        return c;
    ScheduledVector &sv = c.vectors[rng.below(c.vectors.size())];
    ScheduledHop &h = sv.hops[rng.below(sv.hops.size())];
    switch (rng.below(6)) {
    case 0:
    case 1:
    case 2: {
        const Cycle shift = 1 + rng.below(2 * kScheduleWindowCycles);
        h.depart = rng.below(2) && h.depart >= shift ? h.depart - shift
                                                     : h.depart + shift;
        if (rng.below(4))
            h.arrive = h.depart + flightCycles(topo.links()[h.link].cls);
        break;
    }
    case 3:
        h.from = TspId(rng.below(topo.numTsps()));
        break;
    case 4:
        h.link = LinkId(rng.below(topo.links().size()));
        break;
    default:
        sv.hops.clear();
        break;
    }
    return c;
}

/**
 * Schedule `transfers` with both implementations and compare every
 * output: schedule, blame (recomputed against charged), validation
 * report, programs, and the validation reports of a few corrupted
 * copies.
 */
void
expectIdentical(const std::string &name, const Topology &topo,
                const SsnConfig &ssn,
                const std::vector<TensorTransfer> &transfers,
                std::uint64_t corruptions)
{
    SsnScheduler scheduler(topo, ssn);
    const NetworkSchedule got = scheduler.schedule(transfers);
    ScheduleBlame charged;
    const NetworkSchedule want =
        reference::schedule(topo, ssn, transfers, &charged);
    std::string why = scheduleMismatch(got, want);
    ASSERT_EQ(why, "") << name;

    why = blameMismatch(scheduleBlame(got, topo), charged);
    ASSERT_EQ(why, "") << name;

    why = reportMismatch(validateSchedule(got, topo),
                         reference::validateSchedule(want, topo));
    ASSERT_EQ(why, "") << name;

    why = compareProgramLowering(got, topo, transfers);
    ASSERT_EQ(why, "") << name;

    Rng rng(0xC0FFEEull ^ corruptions);
    for (std::uint64_t i = 0; i < corruptions; ++i) {
        const NetworkSchedule bad = corrupt(got, topo, rng);
        why = reportMismatch(validateSchedule(bad, topo),
                             reference::validateSchedule(bad, topo));
        ASSERT_EQ(why, "") << name << " corruption " << i;
    }
}

void
expectScenarioIdentical(const std::string &name, const Scenario &sc,
                        std::uint64_t corruptions)
{
    const Topology topo = sc.topology.build();
    const LoweredScenario lowered = lowerScenario(sc, topo);
    expectIdentical(name, topo, sc.ssn, lowered.transfers, corruptions);
}

TEST(SsnDifferential, CheckedInScenariosMatchTheReference)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    const fs::path root(TSM_SCENARIO_DIR);
    for (const fs::path &dir : {root, root / "traffic"})
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.path().extension() == ".json")
                files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_EQ(files.size(), 23u);
    for (const fs::path &file : files) {
        Scenario sc;
        std::string error;
        ASSERT_TRUE(loadScenarioFile(file.string(), sc, &error)) << error;
        expectScenarioIdentical(file.filename().string(), sc, 8);
    }
}

TEST(SsnDifferential, GeneratedScenariosMatchTheReference)
{
    for (std::uint64_t seed = 1; seed <= 2000; seed += kStride) {
        const Scenario sc = generateScenario(seed);
        expectScenarioIdentical("seed " + std::to_string(seed), sc, 2);
        if (HasFatalFailure())
            return;
    }
}

TEST(SsnDifferential, PathsMatchTheReferenceOnEveryPair)
{
    struct Case
    {
        std::string name;
        Topology topo;
    };
    std::vector<Case> cases;
    cases.push_back({"node full mesh", Topology::makeNode()});
    cases.push_back({"node triple ring",
                     Topology::makeNode(NodeWiring::TripleRing)});
    cases.push_back({"ring 7", Topology::makeRing(7)});
    cases.push_back({"single level 33", Topology::makeSingleLevel(33)});
    cases.push_back({"two level 2", Topology::makeTwoLevel(2)});
    Topology spared = Topology::makeSingleLevel(4, NodeWiring::TripleRing);
    spared.disableNode(1);
    cases.push_back({"single level 4, node 1 disabled", std::move(spared)});

    for (const Case &c : cases) {
        const unsigned n = c.topo.numTsps();
        for (TspId src = 0; src < n; src += n > 64 ? kStride : 1) {
            for (TspId dst = 0; dst < n; ++dst) {
                for (unsigned extra : {0u, 1u, 2u}) {
                    for (unsigned limit : {1u, 8u, 32u, 64u}) {
                        const auto got = c.topo.paths(src, dst, extra, limit);
                        const auto want = reference::paths(c.topo, src, dst,
                                                           extra, limit);
                        ASSERT_EQ(got, want)
                            << c.name << ": " << src << " -> " << dst
                            << " extra " << extra << " limit " << limit;
                    }
                }
            }
        }
    }
}

TEST(SsnDifferential, DisabledNodeLeavesSomePairsWithoutAPath)
{
    Topology topo = Topology::makeSingleLevel(4);
    topo.disableNode(1);
    EXPECT_TRUE(topo.paths(0, 8, 2).empty());
    EXPECT_TRUE(reference::paths(topo, 0, 8, 2).empty());
    EXPECT_FALSE(topo.paths(0, 16, 0).empty());
}

} // namespace
} // namespace tsm
