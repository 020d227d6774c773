/**
 * @file
 * The receive path's FIFO ring: differential against std::deque (a
 * test-only oracle), growth where nothing reserved a slot, and the
 * compiler guarantee that keeps the event path allocation-free — no
 * programmed chip's ring outgrows what load() reserved.
 */

#include <gtest/gtest.h>

#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "common/rng.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "runtime/machine.hh"
#include "scenario/scenario.hh"
#include "sim/event_queue.hh"

namespace tsm {
namespace {

ArrivedFlit
tagged(std::uint32_t seq)
{
    ArrivedFlit af;
    af.flit.flow = 1;
    af.flit.seq = seq;
    af.flit.payload = makeVec(Vec(float(seq)));
    af.arrival = seq;
    return af;
}

TEST(RxRingDifferential, MatchesDequeOverSeededPushPopSequences)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        RxRing ring;
        ring.reserve(rng.below(3));
        std::deque<ArrivedFlit> oracle;
        std::uint32_t next = 0;
        for (int step = 0; step < 2000; ++step) {
            // Bias toward pushes early (growth), pops late (wrap).
            const bool push = rng.chance(step < 1000 ? 0.6 : 0.4);
            if (push) {
                ring.push(tagged(next));
                oracle.push_back(tagged(next));
                ++next;
            } else if (!oracle.empty()) {
                ASSERT_FALSE(ring.empty());
                const ArrivedFlit got = ring.pop();
                EXPECT_EQ(got.flit.seq, oracle.front().flit.seq);
                EXPECT_EQ(got.arrival, oracle.front().arrival);
                ASSERT_TRUE(got.flit.payload);
                EXPECT_EQ((*got.flit.payload)[0],
                          float(oracle.front().flit.seq));
                oracle.pop_front();
            }
            ASSERT_EQ(ring.size(), oracle.size()) << "seed " << seed;
            ASSERT_GE(ring.capacity(), ring.size());
        }
    }
}

TEST(RxRingDifferential, GrowthKeepsOrderAcrossTheWrap)
{
    RxRing ring;
    ring.reserve(4);
    for (std::uint32_t s = 0; s < 3; ++s)
        ring.push(tagged(s));
    ring.pop();
    ring.pop();
    // Head sits at slot 2; these wrap, then the fifth push grows.
    for (std::uint32_t s = 3; s < 8; ++s)
        ring.push(tagged(s));
    EXPECT_EQ(ring.capacity(), 8u);
    for (std::uint32_t s = 2; s < 8; ++s)
        EXPECT_EQ(ring.pop().flit.seq, s);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 8u);
}

/** An 8-TSP node with chips attached. */
class RxGrowth : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        topo = Topology::makeNode();
        net = std::make_unique<Network>(topo, eq, Rng(99));
        for (TspId t = 0; t < 2; ++t)
            chips.push_back(std::make_unique<TspChip>(t, *net, DriftClock()));
        link = topo.linksBetween(0, 1)[0];
        rxPort = topo.links()[link].portAt(1);
    }

    Topology topo;
    EventQueue eq;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<TspChip>> chips;
    LinkId link = 0;
    unsigned rxPort = 0;
};

TEST_F(RxGrowth, TwoArrivalsBeforeOneRecvKeepFifoOrder)
{
    chips[0]->setStream(0, makeVec(Vec(10.0f)));
    chips[0]->setStream(1, makeVec(Vec(11.0f)));
    Program tx;
    tx.emitSend(topo.links()[link].portAt(0), 0, 7, 0);
    tx.emitSend(topo.links()[link].portAt(0), 1, 7, 1);
    tx.emitHalt();
    Program rx;
    // Both vectors have landed (~500 ns a hop) before the first Recv.
    rx.emitRecv(rxPort, 4, 7, 0).issueAt = 2000;
    rx.emitRecv(rxPort, 5, 7, 1).issueAt = 2001;
    rx.emitHalt();
    chips[0]->load(std::move(tx));
    chips[1]->load(std::move(rx));
    EXPECT_EQ(chips[1]->rxCapacity(rxPort), 1u);
    chips[0]->start(0);
    chips[1]->start(0);
    eq.run();

    EXPECT_EQ(chips[1]->rxCapacity(rxPort), 2u);
    EXPECT_EQ(chips[1]->rxDepth(rxPort), 0u);
    ASSERT_TRUE(chips[1]->stream(4) && chips[1]->stream(5));
    EXPECT_EQ((*chips[1]->stream(4))[0], 10.0f);
    EXPECT_EQ((*chips[1]->stream(5))[0], 11.0f);
}

TEST_F(RxGrowth, ChipWithNoProgramBuffersInOrder)
{
    EXPECT_EQ(chips[1]->rxCapacity(rxPort), 0u);
    const Tick ser = Tick(kVectorSerializationPs);
    for (std::uint32_t s = 0; s < 5; ++s) {
        Flit f;
        f.flow = 3;
        f.seq = s;
        net->transmit(0, link, f, s * ser);
    }
    eq.run();
    EXPECT_EQ(chips[1]->rxDepth(rxPort), 5u);
    EXPECT_EQ(chips[1]->rxCapacity(rxPort), 8u);

    // A program loaded afterwards drains them oldest first.
    Program rx;
    for (std::uint32_t s = 0; s < 5; ++s)
        rx.emitRecv(rxPort, s, 3, s);
    rx.emitHalt();
    chips[1]->load(std::move(rx));
    chips[1]->start(eq.now());
    eq.run();
    EXPECT_TRUE(chips[1]->halted());
    EXPECT_EQ(chips[1]->stats().flitsReceived, 5u);
}

TEST(RxReservation, NoCheckedInScenarioOutgrowsItsLoadTimeRings)
{
    namespace fs = std::filesystem;
    const fs::path dir(TSM_SCENARIO_DIR);
    unsigned scenarios = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file() || entry.path().extension() != ".json")
            continue;
        const std::string name = entry.path().string();
        Scenario sc;
        std::string error;
        ASSERT_TRUE(loadScenarioFile(name, sc, &error)) << error;
        const auto compiled = compileScenario(sc, &error);
        ASSERT_TRUE(compiled) << name << ": " << error;
        Machine machine(*compiled, sc.seed, sc.mbe);

        const TspId n = compiled->topo.numTsps();
        std::vector<std::size_t> reserved;
        for (TspId t = 0; t < n; ++t)
            for (unsigned p = 0; p < kPortsPerTsp; ++p)
                reserved.push_back(machine.chip(t).rxCapacity(p));
        machine.run();
        for (TspId t = 0; t < n; ++t)
            for (unsigned p = 0; p < kPortsPerTsp; ++p)
                EXPECT_EQ(machine.chip(t).rxCapacity(p),
                          reserved[t * kPortsPerTsp + p])
                    << name << " tsp" << t << " port " << p;
        ++scenarios;
    }
    EXPECT_GE(scenarios, 23u);
}

} // namespace
} // namespace tsm
