/**
 * Span-lifecycle and waterfall invariants under fuzzed scheduled
 * traffic, including forwarded (multi-hop, non-minimal) routes:
 *
 *  - every transfer span that opens closes exactly once, at the final
 *    destination, whatever path spreading the SSN chose;
 *  - the profiler's four waterfall stages (serialize, flight, forward
 *    layover, deskew wait) sum *exactly* to each transfer's observed
 *    end-to-end latency — the telescoping identity the report's
 *    "exact" field asserts;
 *  - FEC MBE injection corrupts payloads without breaking either
 *    invariant, and every MBE is attributed back to its link as one
 *    dropped payload at the consuming Recv.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "prof/profiler.hh"
#include "runtime/machine.hh"
#include "trace/span.hh"
#include "trace/trace.hh"

namespace tsm {
namespace {

class RecordingSink : public TraceSink
{
  public:
    unsigned categoryMask() const override { return kTraceAllCats; }
    void event(const TraceEvent &ev) override { events.push_back(ev); }
    std::vector<TraceEvent> events;
};

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

/** Schedule, execute on chips, and collect the full trace stream. */
void
runScheduled(const std::vector<TensorTransfer> &transfers,
             std::uint64_t seed, double mbe_rate, RecordingSink &rec,
             ProfilerSink &prof)
{
    const auto compiled = compileTransfers(Topology::makeNode(), transfers);
    Machine machine(compiled.value(), seed, mbe_rate);
    machine.eventq().tracer().addSink(&rec);
    machine.eventq().tracer().addSink(&prof);
    machine.run();
    prof.finish();
}

std::uint64_t
totalVectors(const std::vector<TensorTransfer> &transfers)
{
    std::uint64_t n = 0;
    for (const auto &t : transfers)
        n += t.vectors;
    return n;
}

void
checkLifecycleAndWaterfalls(const std::vector<TensorTransfer> &transfers,
                            std::uint64_t seed, double mbe_rate,
                            unsigned &max_legs)
{
    RecordingSink rec;
    ProfilerSink prof;
    runScheduled(transfers, seed, mbe_rate, rec, prof);

    // Span lifecycle from the raw stream: open exactly once, close
    // exactly once, close at or after open, never a close without an
    // open — across direct and forwarded routes alike.
    std::map<SpanId, unsigned> opens, closes;
    std::map<SpanId, Tick> openTick;
    std::uint64_t corrupt_consumes = 0;
    for (const TraceEvent &ev : rec.events) {
        if (ev.cat != TraceCat::Ssn)
            continue;
        if (ev.op == TraceOp::SpanOpen) {
            EXPECT_FALSE(spanIsChild(ev.span));
            ++opens[ev.span];
            openTick[ev.span] = ev.tick;
        } else if (ev.op == TraceOp::SpanClose) {
            EXPECT_FALSE(spanIsChild(ev.span));
            ++closes[ev.span];
            ASSERT_TRUE(openTick.count(ev.span))
                << "span closed before it opened: " << spanStr(ev.span);
            EXPECT_GE(ev.tick, openTick[ev.span]);
        } else if (ev.op == TraceOp::Corrupt) {
            ++corrupt_consumes;
        }
    }
    EXPECT_EQ(opens.size(), totalVectors(transfers));
    EXPECT_EQ(closes.size(), opens.size());
    for (const auto &[span, n] : opens)
        EXPECT_EQ(n, 1u) << "span opened " << n << "x: " << spanStr(span);
    for (const auto &[span, n] : closes)
        EXPECT_EQ(n, 1u) << "span closed " << n << "x: " << spanStr(span);

    // The profiler's reconstruction agrees, and every closed transfer
    // obeys the exact waterfall decomposition.
    EXPECT_EQ(prof.transfers().size(), totalVectors(transfers));
    for (const auto &[span, tr] : prof.transfers()) {
        EXPECT_TRUE(tr.closed) << spanStr(span);
        EXPECT_GE(tr.legs, 1u);
        max_legs = std::max(max_legs, tr.legs);
        EXPECT_EQ(tr.stagesPs(), tr.totalPs())
            << spanStr(span) << ": serialize " << tr.serializePs
            << " + flight " << tr.flightPs << " + forward " << tr.forwardPs
            << " + wait " << tr.waitPs << " != total " << tr.totalPs();
        EXPECT_EQ(tr.openTick, openTick[span]);
    }

    // MBE attribution: each corrupted vector is eventually dropped at
    // a consuming Recv and charged back to the corrupting link.
    std::uint64_t mbes = 0, dropped = 0;
    for (const auto &[link, acct] : prof.links()) {
        mbes += acct.mbes;
        dropped += acct.dropped;
    }
    EXPECT_EQ(dropped, corrupt_consumes);
    EXPECT_EQ(mbes, dropped);
    if (mbe_rate == 0.0)
        EXPECT_EQ(mbes, 0u);
}

TEST(Waterfall, LifecycleAndExactStagesAcrossFuzzedRoutes)
{
    // Saturating single flows force non-minimal path spreading with
    // forwarded hops; incasts exercise contention; small transfers
    // stay single-hop. Every shape must satisfy the same invariants.
    const std::vector<std::vector<TensorTransfer>> shapes = {
        {makeTransfer(1, 0, 7, 64)},                       // spread
        {makeTransfer(1, 0, 1, 1)},                        // minimal
        {makeTransfer(1, 1, 0, 16), makeTransfer(2, 2, 0, 16),
         makeTransfer(3, 3, 0, 16), makeTransfer(4, 4, 0, 16)}, // incast
        {makeTransfer(1, 0, 3, 48), makeTransfer(2, 5, 2, 48)}, // cross
    };
    unsigned max_legs = 0;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE("shape " + std::to_string(i) + " seed " +
                         std::to_string(seed));
            checkLifecycleAndWaterfalls(shapes[i], seed, 0.0, max_legs);
        }
    }
    // The fuzz must actually have covered a forwarded route.
    EXPECT_GE(max_legs, 2u);
}

TEST(Waterfall, InvariantsSurviveInjectedMbes)
{
    unsigned max_legs = 0;
    checkLifecycleAndWaterfalls({makeTransfer(1, 0, 7, 64)}, 1, 0.3,
                                max_legs);
    EXPECT_GE(max_legs, 2u);

    // And the faulty run really did see MBEs (the rate is high enough
    // that a clean pass would mean the injection path is dead).
    RecordingSink rec;
    ProfilerSink prof;
    runScheduled({makeTransfer(1, 0, 7, 64)}, 1, 0.3, rec, prof);
    std::uint64_t mbes = 0;
    for (const auto &[link, acct] : prof.links())
        mbes += acct.mbes;
    EXPECT_GT(mbes, 0u);
    bool saw_corrupt_transfer = false;
    for (const auto &[span, tr] : prof.transfers())
        saw_corrupt_transfer |= tr.mbes > 0;
    EXPECT_TRUE(saw_corrupt_transfer);
}

} // namespace
} // namespace tsm
