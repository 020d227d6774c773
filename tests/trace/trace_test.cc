#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "ssn/schedule_trace.hh"
#include "ssn/scheduler.hh"
#include "trace/chrome_trace.hh"
#include "trace/digest.hh"
#include "trace/metrics.hh"
#include "trace/session.hh"

namespace tsm {
namespace {

/** Records every delivered event for inspection. */
class RecordingSink : public TraceSink
{
  public:
    explicit RecordingSink(unsigned mask = kTraceAllCats) : mask_(mask) {}

    unsigned categoryMask() const override { return mask_; }
    void event(const TraceEvent &ev) override { events.push_back(ev); }
    void finish() override { ++finishes; }

    std::vector<TraceEvent> events;
    int finishes = 0;

  private:
    unsigned mask_;
};

TEST(Tracer, InactiveByDefault)
{
    Tracer tracer;
    EXPECT_FALSE(tracer.active());
    EXPECT_EQ(tracer.numSinks(), 0u);
    for (unsigned c = 0; c < kNumTraceCats; ++c)
        EXPECT_FALSE(tracer.wants(TraceCat(c)));
    // Emitting with no sinks must be harmless.
    tracer.emit({1, 0, TraceCat::Chip, TraceOp(Op::Nop), 0, 0, 0});
}

TEST(Tracer, MaskFiltersPerSink)
{
    Tracer tracer;
    RecordingSink all(kTraceAllCats);
    RecordingSink netOnly(traceCatBit(TraceCat::Net));
    tracer.addSink(&all);
    tracer.addSink(&netOnly);

    EXPECT_TRUE(tracer.wants(TraceCat::Net));
    EXPECT_TRUE(tracer.wants(TraceCat::Sim));

    tracer.emit({1, 0, TraceCat::Net, TraceOp::Tx, 0, 0, 0});
    tracer.emit({2, 0, TraceCat::Chip, TraceOp(Op::Nop), 0, 0, 0});

    EXPECT_EQ(all.events.size(), 2u);
    ASSERT_EQ(netOnly.events.size(), 1u);
    EXPECT_EQ(netOnly.events[0].op, TraceOp::Tx);
}

TEST(Tracer, RemoveSinkRecomputesMask)
{
    Tracer tracer;
    RecordingSink sim(traceCatBit(TraceCat::Sim));
    RecordingSink chip(traceCatBit(TraceCat::Chip));
    tracer.addSink(&sim);
    tracer.addSink(&chip);
    tracer.removeSink(&sim);

    EXPECT_FALSE(tracer.wants(TraceCat::Sim));
    EXPECT_TRUE(tracer.wants(TraceCat::Chip));
    EXPECT_EQ(tracer.numSinks(), 1u);

    tracer.removeSink(&chip);
    EXPECT_FALSE(tracer.active());
    // Removing an absent sink is a no-op.
    tracer.removeSink(&chip);
}

TEST(Tracer, FinishAllForwards)
{
    Tracer tracer;
    RecordingSink a, b;
    tracer.addSink(&a);
    tracer.addSink(&b);
    tracer.finishAll();
    EXPECT_EQ(a.finishes, 1);
    EXPECT_EQ(b.finishes, 1);
}

TEST(Tracer, DefaultMaskExcludesSimOnly)
{
    EXPECT_EQ(kTraceDefaultCats & traceCatBit(TraceCat::Sim), 0u);
    for (auto c : {TraceCat::Chip, TraceCat::Net, TraceCat::Ssn,
                   TraceCat::Sync, TraceCat::Runtime})
        EXPECT_NE(kTraceDefaultCats & traceCatBit(c), 0u);
}

TEST(Tracer, CategoryNames)
{
    EXPECT_STREQ(traceCatName(TraceCat::Sim), "sim");
    EXPECT_STREQ(traceCatName(TraceCat::Chip), "chip");
    EXPECT_STREQ(traceCatName(TraceCat::Net), "net");
    EXPECT_STREQ(traceCatName(TraceCat::Ssn), "ssn");
    EXPECT_STREQ(traceCatName(TraceCat::Sync), "sync");
    EXPECT_STREQ(traceCatName(TraceCat::Runtime), "runtime");
}

TEST(Tracer, EveryOpRendersItsJournalName)
{
    // Journals, digests and metrics keys spell events by these names,
    // so old journals stay comparable only while every one holds.
    const std::pair<TraceOp, const char *> names[] = {
        {TraceOp(Op::Nop), "NOP"},
        {TraceOp(Op::Compute), "COMPUTE"},
        {TraceOp(Op::Halt), "HALT"},
        {TraceOp(Op::Read), "READ"},
        {TraceOp(Op::Write), "WRITE"},
        {TraceOp(Op::VAdd), "VADD"},
        {TraceOp(Op::VSub), "VSUB"},
        {TraceOp(Op::VMul), "VMUL"},
        {TraceOp(Op::VScale), "VSCALE"},
        {TraceOp(Op::VRsqrt), "VRSQRT"},
        {TraceOp(Op::VSplat), "VSPLAT"},
        {TraceOp(Op::VCopy), "VCOPY"},
        {TraceOp(Op::MxmLoadWeights), "MXM.LW"},
        {TraceOp(Op::MxmClear), "MXM.CLEAR"},
        {TraceOp(Op::MxmMatMul), "MXM.MM"},
        {TraceOp(Op::SxmRotate), "SXM.ROT"},
        {TraceOp(Op::Send), "SEND"},
        {TraceOp(Op::Recv), "RECV"},
        {TraceOp(Op::PollRecv), "POLLRECV"},
        {TraceOp(Op::Sync), "SYNC"},
        {TraceOp(Op::Notify), "NOTIFY"},
        {TraceOp(Op::Deskew), "DESKEW"},
        {TraceOp(Op::Transmit), "TRANSMIT"},
        {TraceOp(Op::RuntimeDeskew), "RUNTIME_DESKEW"},
        {TraceOp::Halt, "halt"},
        {TraceOp::PollWait, "poll_wait"},
        {TraceOp::Dispatch, "dispatch"},
        {TraceOp::Tx, "tx"},
        {TraceOp::Rx, "rx"},
        {TraceOp::Mbe, "mbe"},
        {TraceOp::Ctl, "ctl"},
        {TraceOp::Send, "send"},
        {TraceOp::Recv, "recv"},
        {TraceOp::Corrupt, "corrupt"},
        {TraceOp::SpanOpen, "span_open"},
        {TraceOp::SpanClose, "span_close"},
        {TraceOp::Hop, "hop"},
        {TraceOp::Flow, "flow"},
        {TraceOp::Makespan, "makespan"},
        {TraceOp::HacTx, "hac_tx"},
        {TraceOp::HacAdj, "hac_adj"},
        {TraceOp::Synchronize, "synchronize"},
        {TraceOp::LaunchAligned, "launch_aligned"},
        {TraceOp::LaunchRaw, "launch_raw"},
        {TraceOp::Completed, "completed"},
    };
    // The table lists every op once, in declaration order.
    ASSERT_EQ(std::size(names), unsigned(TraceOp::Completed) + 1);
    for (unsigned i = 0; i < std::size(names); ++i) {
        EXPECT_EQ(unsigned(names[i].first), i);
        EXPECT_STREQ(traceOpName(names[i].first), names[i].second);
    }
    for (unsigned o = 0; o < kNumOps; ++o)
        EXPECT_STREQ(traceOpName(TraceOp(Op(o))), opName(Op(o)));
}

TEST(ChromeTrace, WellFormedJsonArray)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        sink.event({2 * kPsPerUs, kPsPerUs, TraceCat::Chip,
                    TraceOp(Op::Send), 3, 7, 9});
        sink.event({5 * kPsPerUs, 0, TraceCat::Net, TraceOp::Rx, 1, 2, 4});
        sink.finish();
        EXPECT_EQ(sink.eventsWritten(), 2u);
    }
    const std::string json = os.str();

    // Structural well-formedness without a JSON parser: array
    // brackets, balanced braces, no trailing comma.
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.substr(json.size() - 2), "]\n");
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(json.find(",]"), std::string::npos);
    EXPECT_EQ(json.find(",\n]"), std::string::npos);

    // A complete event with microsecond ts/dur...
    EXPECT_NE(json.find("\"name\":\"SEND\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":2.000000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":1.000000"), std::string::npos);
    // ...an instant for the zero-duration one...
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // ...and process-name metadata naming the categories.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("\"chip\""), std::string::npos);
}

TEST(ChromeTrace, FinishIsIdempotentAndDtorFinishes)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        sink.event({1, 0, TraceCat::Net, TraceOp::Tx, 0, 0, 0});
        sink.finish();
        sink.finish();
        // Destructor runs here; must not close the array again.
    }
    const std::string json = os.str();
    EXPECT_EQ(std::count(json.begin(), json.end(), ']'), 1);
}

TEST(ChromeTrace, EmptyTraceIsStillAnArray)
{
    std::ostringstream os;
    ChromeTraceSink sink(os);
    sink.finish();
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find(']'), std::string::npos);
    EXPECT_EQ(sink.eventsWritten(), 0u);
}

TEST(Metrics, RegistryCountersAndAccumulators)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.counterValue("missing"), 0u);
    EXPECT_EQ(reg.findAccumulator("missing"), nullptr);

    reg.counter("a") += 3;
    ++reg.counter("a");
    reg.accumulator("lat").add(2.0);
    reg.accumulator("lat").add(4.0);

    EXPECT_EQ(reg.counterValue("a"), 4u);
    ASSERT_NE(reg.findAccumulator("lat"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findAccumulator("lat")->mean(), 3.0);
    EXPECT_EQ(reg.numCounters(), 1u);
    EXPECT_EQ(reg.numAccumulators(), 1u);

    const std::string report = reg.report();
    EXPECT_NE(report.find("a"), std::string::npos);
    EXPECT_NE(report.find("lat"), std::string::npos);

    reg.clear();
    EXPECT_TRUE(reg.empty());
}

TEST(Metrics, SinkFoldsEventsByCategoryAndName)
{
    MetricsSink sink;
    sink.event({0, 0, TraceCat::Net, TraceOp::Tx, 1, 0, 0});
    sink.event({1, 2 * kPsPerUs, TraceCat::Net, TraceOp::Tx, 1, 0, 0});
    sink.event({2, 0, TraceCat::Chip, TraceOp(Op::Send), 0, 0, 0});

    const MetricsRegistry &reg = sink.registry();
    EXPECT_EQ(reg.counterValue("net.tx"), 2u);
    EXPECT_EQ(reg.counterValue("chip.SEND"), 1u);
    const Accumulator *us = reg.findAccumulator("net.tx.us");
    ASSERT_NE(us, nullptr);
    EXPECT_EQ(us->count(), 1u);
    EXPECT_DOUBLE_EQ(us->mean(), 2.0);
}

TEST(Digest, StableAndOrderSensitive)
{
    const TraceEvent e1{1, 0, TraceCat::Chip, TraceOp(Op::Nop), 0, 1, 2};
    const TraceEvent e2{2, 0, TraceCat::Net, TraceOp::Tx, 1, 3, 4};

    DigestSink d1, d2, d3;
    EXPECT_EQ(d1.digest(), kFnvOffsetBasis);

    d1.event(e1);
    d1.event(e2);
    d2.event(e1);
    d2.event(e2);
    d3.event(e2);
    d3.event(e1);

    EXPECT_EQ(d1.digest(), d2.digest());
    EXPECT_NE(d1.digest(), d3.digest()); // order matters
    EXPECT_EQ(d1.events(), 2u);

    d1.reset();
    EXPECT_EQ(d1.digest(), kFnvOffsetBasis);
    EXPECT_EQ(d1.events(), 0u);
}

TEST(Digest, SensitiveToEveryField)
{
    const TraceEvent base{1, 2, TraceCat::Chip, TraceOp(Op::Nop), 3, 4, 5};
    const auto hash = [](TraceEvent ev) {
        DigestSink d;
        d.event(ev);
        return d.digest();
    };
    const std::uint64_t h0 = hash(base);

    TraceEvent m = base;
    m.tick = 9;
    EXPECT_NE(hash(m), h0);
    m = base;
    m.dur = 9;
    EXPECT_NE(hash(m), h0);
    m = base;
    m.cat = TraceCat::Net;
    EXPECT_NE(hash(m), h0);
    m = base;
    m.actor = 9;
    EXPECT_NE(hash(m), h0);
    m = base;
    m.op = TraceOp(Op::VAdd);
    EXPECT_NE(hash(m), h0);
    m = base;
    m.a = 9;
    EXPECT_NE(hash(m), h0);
    m = base;
    m.b = 9;
    EXPECT_NE(hash(m), h0);
}

TEST(Digest, KnownFnvVector)
{
    // Classic FNV-1a test vector: "a" hashes to this constant.
    EXPECT_EQ(fnv1a64(kFnvOffsetBasis, "a", 1), 0xaf63dc4c8601ec8cull);
}

TEST(EventQueueTracing, DispatchEventsCoverEveryExecution)
{
    EventQueue eq;
    DigestSink digest; // kTraceAllCats, so it sees Sim dispatches
    eq.tracer().addSink(&digest);
    for (Tick t = 1; t <= 5; ++t)
        eq.schedule(t * 10, [] {});
    eq.run();
    EXPECT_EQ(digest.events(), 5u);
    eq.tracer().removeSink(&digest);
}

TEST(EventQueueTracing, DefaultMaskSinkSkipsDispatches)
{
    EventQueue eq;
    RecordingSink sink(kTraceDefaultCats);
    eq.tracer().addSink(&sink);
    eq.schedule(1, [] {});
    eq.run();
    EXPECT_TRUE(sink.events.empty());
    eq.tracer().removeSink(&sink);
}

TEST(TraceSession, AttachDetachAcrossQueues)
{
    TraceOptions opts;
    opts.digest = true;
    TraceSession session(opts);
    EXPECT_TRUE(session.active());

    {
        EventQueue eq;
        session.attach(eq.tracer());
        eq.schedule(1, [] {});
        eq.run();
        session.detach();
    }
    const std::uint64_t after_first = session.digest();
    EXPECT_NE(after_first, 0u);

    {
        EventQueue eq2;
        session.attach(eq2.tracer());
        eq2.schedule(1, [] {});
        eq2.run();
        session.detach();
    }
    // The digest keeps folding across attachments.
    EXPECT_NE(session.digest(), after_first);
}

TEST(ScheduleTrace, DeterministicAcrossRuns)
{
    const Topology topo = Topology::makeNode();
    std::vector<TensorTransfer> transfers;
    for (unsigned f = 0; f < 3; ++f) {
        TensorTransfer t;
        t.flow = f + 1;
        t.src = TspId(f);
        t.dst = TspId(7 - f);
        t.vectors = 16;
        transfers.push_back(t);
    }

    const auto digestOf = [&] {
        SsnScheduler scheduler(topo);
        const auto sched = scheduler.schedule(transfers);
        Tracer tracer;
        DigestSink digest;
        tracer.addSink(&digest);
        const std::uint64_t n = traceSchedule(tracer, sched);
        EXPECT_GT(n, 0u);
        EXPECT_EQ(n, digest.events());
        tracer.removeSink(&digest);
        return digest.digest();
    };
    EXPECT_EQ(digestOf(), digestOf());
}

TEST(ScheduleTrace, NoSinkMeansNoWork)
{
    const Topology topo = Topology::makeNode();
    TensorTransfer t;
    t.flow = 1;
    t.src = 0;
    t.dst = 1;
    t.vectors = 4;
    SsnScheduler scheduler(topo);
    const auto sched = scheduler.schedule({t});
    Tracer tracer;
    EXPECT_EQ(traceSchedule(tracer, sched), 0u);
}

} // namespace
} // namespace tsm
