/**
 * @file
 * Canonical event journals (`tsm-journal-v1`): a line-oriented text
 * serialization of the full trace stream, including the event queue's
 * per-dispatch firehose. Where the digest (trace/digest.hh) answers
 * *whether* two runs diverged with one integer, a journal answers
 * *where*: record two runs with `--journal=FILE` and feed both files
 * to tools/tsm_diverge, which reports the first event at which the
 * streams differ together with the causal span ancestry of the
 * offending transfer.
 *
 * Format: a `# tsm-journal-v1` header line, then one event per line,
 *
 *     <tick> <cat> <actor> <name> <a> <b> <span-hex>
 *
 * with fields space-separated, the span in hexadecimal (0 = no span),
 * and `#`-prefixed lines reserved for comments/metadata. Because the
 * simulator is single-threaded and sinks observe events in emission
 * order, byte-identical journals are exactly the determinism claim of
 * the paper: same program + same seed must reproduce every line.
 */

#ifndef TSM_TRACE_JOURNAL_HH
#define TSM_TRACE_JOURNAL_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace tsm {

/** Header line identifying the journal format. */
inline constexpr const char *kJournalMagic = "# tsm-journal-v1";

/**
 * Streams every trace event as one canonical text line. Lines are
 * formatted into one buffer that goes to the stream in chunks of at
 * most kChunk bytes; the tail follows at finish() or destruction, so
 * read the stream only after one of them.
 */
class JournalSink : public TraceSink
{
  public:
    /** Most bytes handed to the stream at once: std::filebuf's own
     *  buffer size. */
    static constexpr std::size_t kChunk = 8192;

    /** Write into an externally owned stream (tests). */
    explicit JournalSink(std::ostream &os);

    /** Open `path` for writing; fatal() if it cannot be opened. */
    explicit JournalSink(const std::string &path);

    ~JournalSink() override;

    /** Everything, Sim dispatches included: divergence can start at
     *  the scheduling layer before any visible payload differs. */
    unsigned categoryMask() const override { return kTraceAllCats; }

    void event(const TraceEvent &ev) override;

    /** Flush and close; idempotent. */
    void finish() override;

    /** Number of event lines written. */
    std::uint64_t eventsWritten() const { return events_; }

  private:
    /** Hand the buffered lines to the stream. */
    void drain();

    std::unique_ptr<std::ofstream> owned_;
    std::ostream *os_;
    std::array<char, kChunk> buf_{};
    std::size_t used_ = 0; ///< bytes of buf_ holding lines
    std::uint64_t events_ = 0;
    bool finished_ = false;
};

/** One parsed journal line. */
struct JournalRecord
{
    Tick tick = 0;
    std::string cat;  ///< category name as recorded ("net", "ssn", ...)
    std::uint32_t actor = 0;
    std::string name; ///< event name ("tx", "span_open", ...)
    std::int64_t a = 0;
    std::int64_t b = 0;
    SpanId span = kSpanNone;

    std::size_t line = 0; ///< 1-based line number in the file
    std::string raw;      ///< the original line, verbatim

    bool operator==(const JournalRecord &o) const
    {
        return tick == o.tick && cat == o.cat && actor == o.actor &&
               name == o.name && a == o.a && b == o.b && span == o.span;
    }
    bool operator!=(const JournalRecord &o) const { return !(*this == o); }
};

/**
 * Parse a `tsm-journal-v1` file into `out` (appended in file order;
 * comment lines are skipped). Returns false with a description in
 * `*error` on a missing file, bad magic, or a malformed line.
 */
bool readJournal(const std::string &path, std::vector<JournalRecord> &out,
                 std::string *error);

/** Parse one event line (no magic/comment handling). */
bool parseJournalLine(const std::string &line, JournalRecord &out);

/** Serialize one event as its canonical journal line (no newline). */
std::string journalLine(const TraceEvent &ev);

} // namespace tsm

#endif // TSM_TRACE_JOURNAL_HH
