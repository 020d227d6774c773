#include "trace/chrome_trace.hh"

#include <cstdio>
#include <string_view>

#include "common/format.hh"
#include "common/log.hh"

namespace tsm {

namespace {

/** Picoseconds to the format's microsecond timestamps. */
std::string
psToUsField(Tick ps)
{
    // 6 decimals keeps single-picosecond resolution exactly.
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llu.%06llu",
                  (unsigned long long)(ps / kPsPerUs),
                  (unsigned long long)(ps % kPsPerUs));
    return buf;
}

} // namespace

ChromeTraceSink::ChromeTraceSink(std::ostream &os, unsigned mask)
    : os_(&os), mask_(mask)
{
    writeHeader();
}

ChromeTraceSink::ChromeTraceSink(const std::string &path, unsigned mask)
    : owned_(std::make_unique<std::ofstream>(path)), os_(owned_.get()),
      mask_(mask)
{
    if (!owned_->is_open())
        fatal("cannot open trace output file '{}'", path);
    writeHeader();
}

ChromeTraceSink::~ChromeTraceSink()
{
    finish();
}

void
ChromeTraceSink::writeHeader()
{
    *os_ << "[";
    // One "process" per subsystem so chrome://tracing groups lanes.
    for (unsigned c = 0; c < kNumTraceCats; ++c) {
        writeRecord(format("{{\"name\":\"process_name\",\"ph\":\"M\","
                           "\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                           c, traceCatName(TraceCat(c))));
    }
}

void
ChromeTraceSink::writeRecord(const std::string &json)
{
    if (records_++ > 0)
        *os_ << ",";
    *os_ << "\n" << json;
}

void
ChromeTraceSink::event(const TraceEvent &ev)
{
    if (finished_)
        return;
    const char *ph = ev.dur > 0 ? "X" : "i";
    std::string rec =
        format("{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\","
               "\"ts\":{},",
               traceOpName(ev.op), traceCatName(ev.cat), ph,
               psToUsField(ev.tick));
    if (ev.dur > 0)
        rec += format("\"dur\":{},", psToUsField(ev.dur));
    else
        rec += "\"s\":\"t\",";
    rec += format("\"pid\":{},\"tid\":{},\"args\":{{\"a\":{},\"b\":{}",
                  unsigned(ev.cat), ev.actor, ev.a, ev.b);
    if (ev.span != kSpanNone)
        rec += format(",\"span\":\"{}\"", spanStr(ev.span));
    rec += "}}";
    writeRecord(rec);
    ++events_;
    maybeWriteFlow(ev);
}

/**
 * Causal transfers render as Perfetto flow arrows: the span open is a
 * flow start (ph "s"), every link-leg arrival a flow step ("t"), and
 * the consuming receive the flow finish ("f"), all keyed by the
 * transfer's parent span id so multi-hop journeys connect across the
 * chip and link lanes.
 */
void
ChromeTraceSink::maybeWriteFlow(const TraceEvent &ev)
{
    if (ev.span == kSpanNone)
        return;
    std::string_view ph;
    if (ev.op == TraceOp::SpanOpen)
        ph = "s";
    else if (ev.op == TraceOp::Rx)
        ph = "t";
    else if (ev.op == TraceOp::SpanClose)
        ph = "f";
    else
        return;
    std::string rec =
        format("{{\"name\":\"transfer\",\"cat\":\"span\",\"ph\":\"{}\","
               "\"id\":{},\"ts\":{},\"pid\":{},\"tid\":{}",
               ph, std::uint64_t(spanParent(ev.span)), psToUsField(ev.tick),
               unsigned(ev.cat), ev.actor);
    if (ph == "f")
        rec += ",\"bp\":\"e\""; // bind to the enclosing slice
    rec += "}";
    writeRecord(rec);
    ++flows_;
}

void
ChromeTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    *os_ << "\n]\n";
    os_->flush();
}

} // namespace tsm
