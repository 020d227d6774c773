#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "runtime/machine.hh"
#include "ssn/deadlock.hh"
#include "ssn/scheduler.hh"

namespace tsm {
namespace {

/** Generate a random but reproducible transfer set. */
std::vector<TensorTransfer>
randomTransfers(Rng &rng, unsigned num_tsps, unsigned count,
                std::uint32_t max_vectors)
{
    std::vector<TensorTransfer> out;
    for (unsigned i = 0; i < count; ++i) {
        TensorTransfer t;
        t.flow = FlowId(i + 1);
        t.src = TspId(rng.below(num_tsps));
        do {
            t.dst = TspId(rng.below(num_tsps));
        } while (t.dst == t.src);
        t.vectors = std::uint32_t(rng.below(max_vectors) + 1);
        t.earliest = Cycle(rng.below(500));
        out.push_back(t);
    }
    return out;
}

/** Random workloads on the node, parameterized by seed. */
class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SchedulerFuzz, EveryRandomWorkloadValidates)
{
    Rng rng(GetParam());
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = randomTransfers(rng, topo.numTsps(), 12, 64);
    const auto sched = scheduler.schedule(transfers);

    // (1) Conflict-free, causal, chained.
    const auto report = validateSchedule(sched, topo);
    EXPECT_TRUE(report.ok) << report.firstViolation;

    // (2) Conservation: exactly the requested vectors, once each.
    std::map<FlowId, std::uint32_t> counts;
    for (const auto &sv : sched.vectors)
        ++counts[sv.flow];
    for (const auto &t : transfers)
        EXPECT_EQ(counts[t.flow], t.vectors) << "flow " << t.flow;

    // (3) Release times respected.
    for (const auto &t : transfers)
        EXPECT_GE(sched.flows.at(t.flow).firstDeparture, t.earliest);

    // (4) Deadlock-freedom argument holds by construction.
    EXPECT_TRUE(holdAndWaitFree(sched, topo));
}

TEST_P(SchedulerFuzz, ScheduleExecutesOnChipsWithoutPanic)
{
    // The strongest property: lower the schedule to programs and run
    // it on the real chip/network simulation. Any timing error in the
    // scheduler (missed window, underflow, tag mismatch) panics.
    Rng rng(GetParam() ^ 0xabcd);
    const Topology topo = Topology::makeNode();
    const auto transfers = randomTransfers(rng, topo.numTsps(), 6, 24);
    const auto compiled = compileTransfers(topo, transfers);
    Machine machine(compiled.value(), GetParam());
    std::uint64_t expected_rx = 0;
    for (const auto &t : transfers)
        expected_rx += t.vectors;
    machine.run();

    std::uint64_t delivered = 0;
    for (TspId t = 0; t < topo.numTsps(); ++t)
        delivered += machine.chip(t).stats().flitsReceived;
    // Receptions include intermediate-hop forwards, so >= final
    // deliveries; final deliveries are bounded below by the transfer
    // volume.
    EXPECT_GE(delivered, expected_rx);
    for (TspId t = 0; t < topo.numTsps(); ++t)
        EXPECT_TRUE(machine.chip(t).halted());
}

TEST_P(SchedulerFuzz, MakespanBoundedByMinimalOnlySerialization)
{
    // Load balancing never loses to the trivial upper bound of
    // pushing everything down one path serially.
    Rng rng(GetParam() ^ 0x77);
    const Topology topo = Topology::makeNode();
    const auto transfers = randomTransfers(rng, topo.numTsps(), 8, 48);

    SsnScheduler balanced(topo);
    SsnScheduler minimal(topo, {.loadBalance = false});
    const auto b = balanced.schedule(transfers);
    const auto m = minimal.schedule(transfers);
    EXPECT_LE(b.makespan, m.makespan + 1);
}

TEST_P(SchedulerFuzz, LargeWorkloadsValidate)
{
    // Heavier load: more flows, bigger tensors — the reservation
    // ledger sees far more occupied windows per link.
    Rng rng(GetParam() ^ 0xf00d);
    const Topology topo = Topology::makeNode();
    SsnScheduler scheduler(topo);
    const auto transfers = randomTransfers(rng, topo.numTsps(), 32, 160);
    const auto sched = scheduler.schedule(transfers);

    const auto report = validateSchedule(sched, topo);
    EXPECT_TRUE(report.ok) << report.firstViolation;

    std::map<FlowId, std::uint32_t> counts;
    for (const auto &sv : sched.vectors)
        ++counts[sv.flow];
    for (const auto &t : transfers)
        EXPECT_EQ(counts[t.flow], t.vectors) << "flow " << t.flow;
    EXPECT_TRUE(holdAndWaitFree(sched, topo));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull, 55ull,
                                           89ull, 144ull, 233ull, 377ull,
                                           610ull, 987ull, 1597ull));

TEST(SchedulerCrossTopology, CrossNodeWorkloadsValidate)
{
    // Same fuzz on multi-node dragonflies (multi-hop, global links)
    // and the ring-wired node (longer minimal paths, fewer choices).
    const Topology topos[] = {Topology::makeSingleLevel(2),
                              Topology::makeSingleLevel(4),
                              Topology::makeNode(NodeWiring::TripleRing)};
    for (const Topology &topo : topos) {
        for (std::uint64_t seed :
             {100ull, 200ull, 300ull, 400ull, 500ull}) {
            Rng rng(seed);
            SsnScheduler scheduler(topo);
            const auto transfers =
                randomTransfers(rng, topo.numTsps(), 10, 32);
            const auto sched = scheduler.schedule(transfers);
            const auto report = validateSchedule(sched, topo);
            EXPECT_TRUE(report.ok)
                << topo.describe() << " seed " << seed << ": "
                << report.firstViolation;
        }
    }
}

TEST(SchedulerCrossTopology, CrossNodeSchedulesExecuteOnChips)
{
    // Execute a cross-node schedule on the simulator: inter-node
    // transfers traverse intermediate hops over global links, so this
    // exercises forwarding programs end to end.
    const Topology topo = Topology::makeSingleLevel(2);
    for (std::uint64_t seed : {1ull, 9ull}) {
        Rng rng(seed);
        const auto transfers = randomTransfers(rng, topo.numTsps(), 4, 8);
        const auto compiled = compileTransfers(topo, transfers);
        Machine machine(compiled.value(), seed);
        machine.run();
        for (TspId t = 0; t < topo.numTsps(); ++t)
            EXPECT_TRUE(machine.chip(t).halted()) << "seed " << seed;
    }
}

TEST(SchedulerOrderSensitivity, TransferOrderIsHonouredDeterministically)
{
    // Scheduling is order-dependent (earlier transfers get earlier
    // windows) but deterministic: permuting inputs changes the
    // schedule reproducibly, not randomly.
    const Topology topo = Topology::makeNode();
    std::vector<TensorTransfer> fwd, rev;
    for (unsigned i = 0; i < 4; ++i) {
        TensorTransfer t;
        t.flow = i + 1;
        t.src = TspId(i);
        t.dst = TspId(i + 4);
        t.vectors = 32;
        fwd.push_back(t);
    }
    rev.assign(fwd.rbegin(), fwd.rend());

    SsnScheduler s(topo);
    const auto a1 = s.schedule(fwd);
    const auto a2 = s.schedule(fwd);
    const auto b = s.schedule(rev);
    EXPECT_EQ(a1.makespan, a2.makespan);
    EXPECT_TRUE(validateSchedule(b, topo).ok);
}

} // namespace
} // namespace tsm
