#include "trace/journal.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/log.hh"

namespace tsm {

std::string
journalLine(const TraceEvent &ev)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 " %s %" PRIu32 " %s %" PRId64 " %" PRId64
                  " %" PRIx64,
                  std::uint64_t(ev.tick), traceCatName(ev.cat), ev.actor,
                  traceOpName(ev.op), ev.a, ev.b,
                  std::uint64_t(ev.span));
    return buf;
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
    *os_ << journalLine(ev) << "\n";
    ++events_;
}

void
JournalSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
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
