#include "trace/journal.hh"

#include <array>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>

#include "common/format.hh"
#include "common/log.hh"

namespace tsm {

namespace {

/** Longest category or event name the journal accepts. */
constexpr std::size_t kMaxName = 32;

/** Longest line, newline included: five numbers, two names, six
 *  spaces and the newline. */
constexpr std::size_t kMaxLine =
    4 * kMaxDecimal + kMaxHex + 2 * kMaxName + 7;

static_assert(kMaxLine <= JournalSink::kChunk);

/** Every category's and op's rendered name, measured once; indexed
 *  by the one-byte enum, so a stray value reads "?" as before. */
struct Names
{
    std::array<std::string_view, 256> cats;
    std::array<std::string_view, 256> ops;

    Names()
    {
        for (unsigned i = 0; i < 256; ++i) {
            cats[i] = check(traceCatName(TraceCat(i)));
            ops[i] = check(traceOpName(TraceOp(i)));
        }
    }

    static std::string_view
    check(std::string_view name)
    {
        TSM_ASSERT(name.size() <= kMaxName, "journal name too long");
        return name;
    }
};

char *
appendName(char *out, std::string_view name)
{
    std::memcpy(out, name.data(), name.size());
    return out + name.size();
}

/** Write `ev`'s canonical line at `out`, which has room for kMaxLine
 *  bytes; returns its end (no newline). */
char *
appendJournalLine(char *out, const TraceEvent &ev)
{
    static const Names names;
    out = appendDecimal(out, std::uint64_t(ev.tick));
    *out++ = ' ';
    out = appendName(out, names.cats[unsigned(ev.cat)]);
    *out++ = ' ';
    out = appendDecimal(out, ev.actor);
    *out++ = ' ';
    out = appendName(out, names.ops[unsigned(ev.op)]);
    *out++ = ' ';
    out = appendDecimal(out, ev.a);
    *out++ = ' ';
    out = appendDecimal(out, ev.b);
    *out++ = ' ';
    return appendHex(out, std::uint64_t(ev.span));
}

} // namespace

std::string
journalLine(const TraceEvent &ev)
{
    char buf[kMaxLine];
    return std::string(buf, appendJournalLine(buf, ev));
}

JournalSink::JournalSink(std::ostream &os) : os_(&os)
{
    *os_ << kJournalMagic << "\n";
}

JournalSink::JournalSink(const std::string &path)
    : owned_(std::make_unique<std::ofstream>(path)), os_(owned_.get())
{
    if (!owned_->is_open())
        fatal("cannot open journal output file '{}'", path);
    *os_ << kJournalMagic << "\n";
}

JournalSink::~JournalSink()
{
    finish();
}

void
JournalSink::event(const TraceEvent &ev)
{
    if (finished_)
        return;
    if (used_ > kChunk - kMaxLine)
        drain();
    char *end = appendJournalLine(buf_.data() + used_, ev);
    *end++ = '\n';
    used_ = std::size_t(end - buf_.data());
    ++events_;
}

void
JournalSink::drain()
{
    os_->write(buf_.data(), std::streamsize(used_));
    used_ = 0;
}

void
JournalSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    drain();
    os_->flush();
}

bool
parseJournalLine(const std::string &line, JournalRecord &out)
{
    std::istringstream is(line);
    std::uint64_t tick = 0;
    std::string span_hex;
    if (!(is >> tick >> out.cat >> out.actor >> out.name >> out.a >> out.b >>
          span_hex))
        return false;
    out.tick = Tick(tick);
    char *end = nullptr;
    out.span = SpanId(std::strtoull(span_hex.c_str(), &end, 16));
    if (end == nullptr || *end != '\0')
        return false;
    std::string extra;
    if (is >> extra)
        return false; // trailing junk
    return true;
}

bool
readJournal(const std::string &path, std::vector<JournalRecord> &out,
            std::string *error)
{
    std::ifstream is(path);
    if (!is.is_open()) {
        if (error)
            *error = "cannot open journal file '" + path + "'";
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    bool saw_magic = false;
    while (std::getline(is, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (lineno == 1) {
            if (line != kJournalMagic) {
                if (error)
                    *error = path + ": not a tsm-journal-v1 file";
                return false;
            }
            saw_magic = true;
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        JournalRecord rec;
        if (!parseJournalLine(line, rec)) {
            if (error)
                *error = path + ":" + std::to_string(lineno) +
                         ": malformed journal line";
            return false;
        }
        rec.line = lineno;
        rec.raw = line;
        out.push_back(std::move(rec));
    }
    if (!saw_magic) {
        if (error)
            *error = path + ": empty file (missing tsm-journal-v1 header)";
        return false;
    }
    return true;
}

} // namespace tsm
