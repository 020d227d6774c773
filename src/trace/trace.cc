#include "trace/trace.hh"

#include <algorithm>

#include "common/log.hh"

namespace tsm {

const char *
traceCatName(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Sim:
        return "sim";
      case TraceCat::Chip:
        return "chip";
      case TraceCat::Net:
        return "net";
      case TraceCat::Ssn:
        return "ssn";
      case TraceCat::Sync:
        return "sync";
      case TraceCat::Runtime:
        return "runtime";
    }
    return "?";
}

const char *
traceOpName(TraceOp op)
{
    if (unsigned(op) < kNumOps)
        return opName(Op(op));
    switch (op) {
      case TraceOp::Halt: return "halt";
      case TraceOp::PollWait: return "poll_wait";
      case TraceOp::Dispatch: return "dispatch";
      case TraceOp::Tx: return "tx";
      case TraceOp::Rx: return "rx";
      case TraceOp::Mbe: return "mbe";
      case TraceOp::Ctl: return "ctl";
      case TraceOp::Send: return "send";
      case TraceOp::Recv: return "recv";
      case TraceOp::Corrupt: return "corrupt";
      case TraceOp::SpanOpen: return "span_open";
      case TraceOp::SpanClose: return "span_close";
      case TraceOp::Hop: return "hop";
      case TraceOp::Flow: return "flow";
      case TraceOp::Makespan: return "makespan";
      case TraceOp::HacTx: return "hac_tx";
      case TraceOp::HacAdj: return "hac_adj";
      case TraceOp::Synchronize: return "synchronize";
      case TraceOp::LaunchAligned: return "launch_aligned";
      case TraceOp::LaunchRaw: return "launch_raw";
      case TraceOp::Completed: return "completed";
    }
    return "?";
}

void
Tracer::addSink(TraceSink *sink)
{
    TSM_ASSERT(sink != nullptr, "cannot attach a null trace sink");
    for (const auto &att : sinks_)
        TSM_ASSERT(att.sink != sink, "trace sink attached twice");
    sinks_.push_back({sink, sink->categoryMask() & kTraceAllCats});
    mask_ |= sinks_.back().mask;
}

void
Tracer::removeSink(TraceSink *sink)
{
    sinks_.erase(std::remove_if(sinks_.begin(), sinks_.end(),
                                [sink](const Attached &att) {
                                    return att.sink == sink;
                                }),
                 sinks_.end());
    mask_ = 0;
    for (const auto &att : sinks_)
        mask_ |= att.mask;
}

void
Tracer::emit(const TraceEvent &ev)
{
    const unsigned bit = traceCatBit(ev.cat);
    for (const auto &att : sinks_)
        if (att.mask & bit)
            att.sink->event(ev);
}

void
Tracer::finishAll()
{
    for (const auto &att : sinks_)
        att.sink->finish();
}

} // namespace tsm
