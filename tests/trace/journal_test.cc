#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/machine.hh"
#include "trace/journal.hh"
#include "trace/span.hh"

namespace tsm {
namespace {

TEST(JournalLine, RoundTripsEveryField)
{
    const TraceEvent ev{12345, 0, TraceCat::Net, TraceOp::Tx, 7, -3, 99,
                        spanChild(transferSpan(4, 20), 1)};
    const std::string line = journalLine(ev);
    JournalRecord rec;
    ASSERT_TRUE(parseJournalLine(line, rec)) << line;
    EXPECT_EQ(rec.tick, ev.tick);
    EXPECT_EQ(rec.cat, "net");
    EXPECT_EQ(rec.actor, ev.actor);
    EXPECT_EQ(rec.name, "tx");
    EXPECT_EQ(rec.a, ev.a);
    EXPECT_EQ(rec.b, ev.b);
    EXPECT_EQ(rec.span, ev.span);
}

TEST(JournalLine, RejectsMalformedLines)
{
    JournalRecord rec;
    EXPECT_FALSE(parseJournalLine("", rec));
    EXPECT_FALSE(parseJournalLine("12 net 0", rec));
    EXPECT_FALSE(parseJournalLine("12 net 0 tx 1 2 0 extra", rec));
    EXPECT_FALSE(parseJournalLine("x net 0 tx 1 2 0", rec));
}

TEST(JournalSink, WritesMagicAndOneLinePerEvent)
{
    std::ostringstream os;
    {
        JournalSink sink(os);
        EXPECT_EQ(sink.categoryMask(), kTraceAllCats);
        sink.event({1, 0, TraceCat::Sim, TraceOp::Dispatch, 0, 0, 0});
        sink.event({2, 0, TraceCat::Ssn, TraceOp::SpanOpen, 3, 5, 0,
                    transferSpan(5, 0)});
        sink.finish();
        EXPECT_EQ(sink.eventsWritten(), 2u);
    }
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, kJournalMagic);
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "1 sim 0 dispatch 0 0 0");
    ASSERT_TRUE(std::getline(is, line));
    JournalRecord rec;
    ASSERT_TRUE(parseJournalLine(line, rec));
    EXPECT_EQ(rec.span, transferSpan(5, 0));
}

TEST(ReadJournal, ReportsMissingFileAndBadMagic)
{
    std::vector<JournalRecord> recs;
    std::string error;
    EXPECT_FALSE(readJournal("/nonexistent/journal", recs, &error));
    EXPECT_FALSE(error.empty());

    const std::string path =
        testing::TempDir() + "/journal_badmagic.tsmj";
    {
        std::ofstream f(path);
        f << "not a journal\n";
    }
    error.clear();
    EXPECT_FALSE(readJournal(path, recs, &error));
    EXPECT_NE(error.find("not a tsm-journal-v1"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ReadJournal, RoundTripsThroughAFile)
{
    const std::string path = testing::TempDir() + "/journal_rt.tsmj";
    {
        JournalSink sink(path);
        sink.event({10, 0, TraceCat::Ssn, TraceOp::Send, 1, 2, 0,
                    spanChild(transferSpan(2, 0), 0)});
        sink.event({20, 5, TraceCat::Net, TraceOp::Tx, 0, 2, 0});
        sink.finish();
    }
    std::vector<JournalRecord> recs;
    std::string error;
    ASSERT_TRUE(readJournal(path, recs, &error)) << error;
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].name, "send");
    EXPECT_EQ(recs[0].span, spanChild(transferSpan(2, 0), 0));
    EXPECT_EQ(recs[0].line, 2u);
    EXPECT_EQ(recs[1].cat, "net");
    std::remove(path.c_str());
}

/** `n` events with every category and op and wide, varied fields. */
std::vector<TraceEvent>
manyEvents(std::size_t n)
{
    std::vector<TraceEvent> events;
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceEvent ev;
        ev.tick = i * 0x9e3779b97f4a7c15ull;
        ev.cat = TraceCat(i % kNumTraceCats);
        ev.op = TraceOp(i % (unsigned(TraceOp::Completed) + 1));
        ev.actor = std::uint32_t(i * 2654435761u);
        ev.a = std::int64_t(i * i) - 500000;
        ev.b = -std::int64_t(i << 40);
        ev.span = i % 3 ? i * 0xff51afd7ed558ccdull : kSpanNone;
        events.push_back(ev);
    }
    return events;
}

/** The journal `events` must produce, magic line included. */
std::string
expectedJournal(const std::vector<TraceEvent> &events)
{
    std::string text = std::string(kJournalMagic) + "\n";
    for (const TraceEvent &ev : events)
        text += journalLine(ev) + "\n";
    return text;
}

/** A stream buffer that records every write it is handed. */
class WriteRecorder : public std::streambuf
{
  public:
    std::vector<std::size_t> writes;
    std::string bytes;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        writes.push_back(std::size_t(n));
        bytes.append(s, std::size_t(n));
        return n;
    }

    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            writes.push_back(1);
            bytes.push_back(traits_type::to_char_type(c));
        }
        return traits_type::not_eof(c);
    }
};

TEST(JournalSink, HandsTheStreamWholeLinesInChunksOfAtMost8KiB)
{
    const std::vector<TraceEvent> events = manyEvents(4000);
    WriteRecorder rec;
    std::ostream os(&rec);
    JournalSink sink(os);
    for (const TraceEvent &ev : events)
        sink.event(ev);
    ASSERT_FALSE(rec.bytes.empty());
    EXPECT_EQ(rec.bytes.back(), '\n');
    sink.finish();
    EXPECT_EQ(rec.bytes, expectedJournal(events));
    EXPECT_GT(rec.writes.size(), 20u);
    EXPECT_LE(*std::max_element(rec.writes.begin(), rec.writes.end()),
              JournalSink::kChunk);
}

TEST(ReadJournal, LargeJournalsMatchLineForLineThroughBothConstructors)
{
    const std::vector<TraceEvent> events = manyEvents(5000);
    const std::string byPath = testing::TempDir() + "/journal_large.tsmj";
    const std::string byStream =
        testing::TempDir() + "/journal_large_stream.tsmj";
    {
        JournalSink sink(byPath);
        std::ofstream f(byStream);
        JournalSink streamed(f);
        for (const TraceEvent &ev : events) {
            sink.event(ev);
            streamed.event(ev);
        }
    }
    for (const std::string &path : {byPath, byStream}) {
        std::vector<JournalRecord> recs;
        std::string error;
        ASSERT_TRUE(readJournal(path, recs, &error)) << error;
        ASSERT_EQ(recs.size(), events.size()) << path;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const TraceEvent &ev = events[i];
            const JournalRecord &r = recs[i];
            ASSERT_TRUE(r.tick == ev.tick && r.cat == traceCatName(ev.cat) &&
                        r.actor == ev.actor &&
                        r.name == traceOpName(ev.op) && r.a == ev.a &&
                        r.b == ev.b && r.span == ev.span)
                << path << ":" << r.line << ": " << r.raw;
        }
        std::remove(path.c_str());
    }
}

TEST(JournalSink, FinishFlushesTheTailOnceAndLaterEventsAreDropped)
{
    const std::vector<TraceEvent> events = manyEvents(3);
    std::ostringstream os;
    JournalSink sink(os);
    for (const TraceEvent &ev : events)
        sink.event(ev);
    // Only the magic line has reached the stream; the events are the
    // buffered tail.
    EXPECT_EQ(os.str(), std::string(kJournalMagic) + "\n");
    sink.finish();
    EXPECT_EQ(os.str(), expectedJournal(events));
    sink.finish();
    sink.event(events[0]);
    sink.finish();
    EXPECT_EQ(os.str(), expectedJournal(events));
    EXPECT_EQ(sink.eventsWritten(), events.size());
}

TEST(JournalSink, DestructorFlushesWithoutFinish)
{
    const std::vector<TraceEvent> events = manyEvents(300);
    std::ostringstream os;
    {
        JournalSink sink(os);
        for (const TraceEvent &ev : events)
            sink.event(ev);
    }
    EXPECT_EQ(os.str(), expectedJournal(events));
}

/** Run the 2-flow scheduled scenario, journaling into `os`. */
void
runScenario(std::ostream &os, std::uint64_t seed, double mbe_rate)
{
    std::vector<TensorTransfer> transfers;
    for (unsigned f = 0; f < 2; ++f) {
        TensorTransfer t;
        t.flow = f + 1;
        t.src = TspId(f + 1);
        t.dst = 0;
        t.vectors = 8;
        transfers.push_back(t);
    }
    const auto compiled = compileTransfers(Topology::makeNode(), transfers);

    JournalSink sink(os);
    Machine machine(compiled.value(), seed, mbe_rate);
    machine.eventq().tracer().addSink(&sink);
    machine.run();
    sink.finish();
}

TEST(Journal, SameSeedRunsAreByteIdentical)
{
    std::ostringstream a, b;
    runScenario(a, 1, 0.0);
    runScenario(b, 1, 0.0);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_GT(a.str().size(), std::string(kJournalMagic).size() + 1);
}

TEST(Journal, InjectedMbeDivergesWithoutPerturbingTiming)
{
    std::ostringstream clean, faulty;
    runScenario(clean, 1, 0.0);
    runScenario(faulty, 1, 0.25);
    ASSERT_NE(clean.str(), faulty.str());

    // FEC MBEs corrupt payloads but never timing (paper §4.5): the
    // faulty run gains "mbe" lines and renames recv->corrupt, so line
    // counts differ but the tick sequence of common events matches.
    std::istringstream ic(clean.str()), if_(faulty.str());
    std::vector<JournalRecord> rc, rf;
    std::string line;
    std::getline(ic, line); // magic
    while (std::getline(ic, line)) {
        JournalRecord rec;
        ASSERT_TRUE(parseJournalLine(line, rec));
        rc.push_back(rec);
    }
    std::getline(if_, line);
    std::size_t mbe_lines = 0;
    while (std::getline(if_, line)) {
        JournalRecord rec;
        ASSERT_TRUE(parseJournalLine(line, rec));
        if (rec.name == "mbe")
            ++mbe_lines;
        rf.push_back(rec);
    }
    EXPECT_GT(mbe_lines, 0u);
    EXPECT_EQ(rf.size(), rc.size() + mbe_lines);
}

} // namespace
} // namespace tsm
