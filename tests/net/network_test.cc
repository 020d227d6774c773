#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "common/stats.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "sim/event_queue.hh"

namespace tsm {
namespace {

class NetFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        topo = Topology::makeNode();
        net = std::make_unique<Network>(topo, eq, Rng(7));
        link01 = topo.linksBetween(0, 1)[0];
    }

    Flit
    flit(FlowId f, std::uint32_t seq)
    {
        Flit fl;
        fl.flow = f;
        fl.seq = seq;
        return fl;
    }

    Topology topo;
    EventQueue eq;
    std::unique_ptr<Network> net;
    LinkId link01 = 0;
};

TEST_F(NetFixture, DeliveryTimingIsExact)
{
    const Tick arrive = net->transmit(0, link01, flit(1, 0), 0);
    EXPECT_EQ(arrive, Tick(kVectorSerializationPs) +
                          linkPropagationPs(LinkClass::IntraNode));
    eq.run();
    const auto got = net->pollRx(1, topo.links()[link01].portB);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->arrival, arrive);
    EXPECT_EQ(got->flit.flow, 1u);
}

TEST_F(NetFixture, SerializationWindowEnforced)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    net->transmit(0, link01, flit(1, 0), 0);
    EXPECT_DEATH(net->transmit(0, link01, flit(1, 1), 100), "conflict");
}

TEST_F(NetFixture, BackToBackAtSerializationRate)
{
    const Tick ser = Tick(kVectorSerializationPs);
    for (unsigned s = 0; s < 100; ++s)
        net->transmit(0, link01, flit(1, s), s * ser);
    eq.run();
    EXPECT_EQ(net->linkStats(link01).flits, 100u);
    // All arrive in order.
    Tick prev = 0;
    for (unsigned s = 0; s < 100; ++s) {
        const auto got = net->pollRx(1, topo.links()[link01].portB);
        ASSERT_TRUE(got);
        EXPECT_EQ(got->flit.seq, s);
        EXPECT_GT(got->arrival, prev);
        prev = got->arrival;
    }
}

TEST_F(NetFixture, OppositeDirectionsDoNotConflict)
{
    net->transmit(0, link01, flit(1, 0), 0);
    net->transmit(1, link01, flit(2, 0), 0); // other direction, same time
    eq.run();
    EXPECT_TRUE(net->pollRx(1, topo.links()[link01].portB).has_value());
    EXPECT_TRUE(net->pollRx(0, topo.links()[link01].portA).has_value());
}

TEST_F(NetFixture, EarliestDepartureTracksBusyWindow)
{
    EXPECT_EQ(net->earliestDeparture(0, link01, 0), 0u);
    net->transmit(0, link01, flit(1, 0), 0);
    EXPECT_EQ(net->earliestDeparture(0, link01, 0),
              Tick(kVectorSerializationPs));
}

TEST_F(NetFixture, JitterPerturbsOnlyWhenEnabled)
{
    // Without jitter, two transmits have identical flight times.
    const Tick a1 = net->transmit(0, link01, flit(1, 0), 0);
    const Tick a2 =
        net->transmit(0, link01, flit(1, 1), Tick(kVectorSerializationPs));
    EXPECT_EQ(a2 - a1, Tick(kVectorSerializationPs));

    net->setJitterEnabled(true);
    Accumulator flight;
    Tick depart = 10 * Tick(kVectorSerializationPs);
    for (int i = 0; i < 200; ++i) {
        const Tick arr = net->transmit(0, link01, flit(1, 2 + i), depart);
        flight.add(double(arr - depart));
        depart = arr + Tick(kVectorSerializationPs);
    }
    // Mean close to nominal, nonzero spread close to configured sigma.
    const double nominal = kVectorSerializationPs +
                           double(linkPropagationPs(LinkClass::IntraNode));
    const double sigma = double(linkJitterPs(LinkClass::IntraNode));
    EXPECT_NEAR(flight.mean(), nominal, 4.0 * sigma / std::sqrt(200.0));
    EXPECT_GT(flight.stddev(), 0.5 * sigma);
    EXPECT_LT(flight.stddev(), 1.5 * sigma);
}

TEST_F(NetFixture, ControlTransmitBypassesSerializationWindow)
{
    net->transmit(0, link01, flit(1, 0), 0);
    // Would panic if it used the data path.
    net->controlTransmit(0, link01, flit(kFlowHacExchange, 0));
    eq.run();
    EXPECT_EQ(net->rxDepth(1, topo.links()[link01].portB), 2u);
}

TEST_F(NetFixture, FecCorrectsSbeWithoutCorruption)
{
    ErrorModel em;
    em.sbePerVector = 1.0; // every vector takes a correctable hit
    net->setErrorModel(em);
    net->transmit(0, link01, flit(1, 0), 0);
    eq.run();
    const auto got = net->pollRx(1, topo.links()[link01].portB);
    ASSERT_TRUE(got);
    EXPECT_FALSE(got->flit.corrupt);
    EXPECT_EQ(net->linkStats(link01).sbeCorrected, 1u);
}

TEST_F(NetFixture, FecFlagsMbeAsCorrupt)
{
    ErrorModel em;
    em.mbePerVector = 1.0;
    net->setErrorModel(em);
    const Tick t_clean = net->transmit(0, link01, flit(1, 0), 0);
    eq.run();
    const auto got = net->pollRx(1, topo.links()[link01].portB);
    ASSERT_TRUE(got);
    EXPECT_TRUE(got->flit.corrupt);
    // Timing is unchanged by the error (FEC, not retry) — this is the
    // paper's core argument for FEC over link-layer replay.
    EXPECT_EQ(got->arrival, t_clean);
    EXPECT_EQ(net->totalMbes(), 1u);
}

TEST_F(NetFixture, SinkTakesDeliveryInsteadOfFifo)
{
    struct Recorder : FlitSink
    {
        unsigned port = 999;
        std::uint32_t flow = 0;
        void
        flitArrived(unsigned p, const ArrivedFlit &af) override
        {
            port = p;
            flow = af.flit.flow;
        }
    } rec;
    net->attachSink(1, &rec);
    net->transmit(0, link01, flit(5, 0), 0);
    eq.run();
    EXPECT_EQ(rec.flow, 5u);
    EXPECT_EQ(rec.port, topo.links()[link01].portB);
    EXPECT_EQ(net->rxDepth(1, rec.port), 0u);
}

TEST_F(NetFixture, SinkMayTransmitFromInsideDelivery)
{
    // Each arrival bounces back over the link and, on its first bounce,
    // fans out three more flits, so the in-flight slab grows (and may
    // move) while a delivery is running. The sink reads the arrived
    // flit only after transmitting; the sanitizer build checks that
    // the read is not of freed storage.
    struct Bouncer : FlitSink
    {
        Network *net = nullptr;
        TspId self = 0;
        LinkId link = 0;
        unsigned arrivals = 0;
        unsigned payloadErrors = 0;

        void
        flitArrived(unsigned, const ArrivedFlit &af) override
        {
            ++arrivals;
            const Flit in = af.flit;
            if (in.meta < 6) {
                Flit out = in;
                ++out.meta;
                net->controlTransmit(self, link, out);
                if (in.meta == 0)
                    for (std::uint32_t k = 1; k <= 3; ++k) {
                        Flit extra = in;
                        extra.seq = in.seq * 10 + k;
                        extra.meta = 1;
                        extra.payload = makeVec(Vec(float(extra.seq)));
                        net->controlTransmit(self, link, extra);
                    }
            }
            if (af.flit.flow != in.flow || af.flit.seq != in.seq ||
                af.flit.meta != in.meta || af.via != link)
                ++payloadErrors;
            if (!af.flit.payload || (*af.flit.payload)[0] != float(in.seq))
                ++payloadErrors;
        }
    } a, b;
    a.net = b.net = net.get();
    a.self = 0;
    b.self = 1;
    a.link = b.link = link01;
    net->attachSink(0, &a);
    net->attachSink(1, &b);

    const Tick ser = Tick(kVectorSerializationPs);
    for (std::uint32_t s = 0; s < 8; ++s) {
        Flit f = flit(3, s);
        f.payload = makeVec(Vec(float(s)));
        net->transmit(0, link01, f, s * ser);
    }
    eq.run();
    // Each seed flit arrives 7 times (meta 0..6), each of its three
    // extras 6 times (meta 1..6).
    EXPECT_EQ(a.arrivals + b.arrivals, 8u * (7 + 3 * 6));
    EXPECT_EQ(a.payloadErrors + b.payloadErrors, 0u);
}

TEST_F(NetFixture, PollingFifoIndexesAreChecked)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // No flit has landed, so no row exists yet: in range reads empty.
    EXPECT_EQ(net->rxDepth(1, 0), 0u);
    EXPECT_FALSE(net->pollRx(1, kPortsPerTsp - 1).has_value());
    EXPECT_DEATH(net->rxDepth(1, kPortsPerTsp), "tsp1 port 11");
    EXPECT_DEATH(net->pollRx(topo.numTsps(), 0), "tsp8 port 0");
}

TEST_F(NetFixture, DisabledLinkRejectsTraffic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Topology t2 = Topology::makeSingleLevel(2);
    Network n2(t2, eq, Rng(9));
    const auto dead = t2.disableNode(1);
    ASSERT_FALSE(dead.empty());
    EXPECT_DEATH(n2.transmit(t2.links()[dead[0]].a, dead[0], Flit{}, 0),
                 "out-of-service");
}

TEST_F(NetFixture, StatsAccumulateBusyTime)
{
    for (unsigned s = 0; s < 5; ++s)
        net->transmit(0, link01, flit(1, s),
                      s * 2 * Tick(kVectorSerializationPs));
    eq.run();
    EXPECT_EQ(net->linkStats(link01).busyPs,
              5 * Tick(kVectorSerializationPs));
    EXPECT_EQ(net->totalFlits(), 5u);
}

} // namespace
} // namespace tsm
