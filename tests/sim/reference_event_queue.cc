#include "reference_event_queue.hh"

#include "common/log.hh"
#include "hostprof/hostprof.hh"

namespace tsm::reference {

void
EventQueue::schedule(Tick when, Callback fn, SpanId span, EventKind kind)
{
    TSM_ASSERT(when >= now_, "cannot schedule an event in the past");
    if (hostprof_) {
        const bool timed = hostprof_->insertSampleBegin();
        heap_.push(Entry{when, nextSeq_++, std::move(fn), span, kind});
        hostprof_->insertEnd(heap_.size(), timed);
        return;
    }
    heap_.push(Entry{when, nextSeq_++, std::move(fn), span, kind});
}

void
EventQueue::scheduleAfter(Tick delay, Callback fn, SpanId span,
                          EventKind kind)
{
    schedule(now_ + delay, std::move(fn), span, kind);
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t executed = 0;
    if (hostprof_)
        hostprof_->runBegin(now_, heap_.size());
    while (!heap_.empty() && executed < limit) {
        // Copy out before pop so the callback may schedule new events.
        Entry top = std::move(const_cast<Entry &>(heap_.top()));
        heap_.pop();
        now_ = top.when;
        if (tracer_.wants(TraceCat::Sim))
            tracer_.emit({top.when, 0, TraceCat::Sim, TraceOp::Dispatch, 0,
                          std::int64_t(top.seq), 0, top.span});
        if (hostprof_) {
            hostprof_->dispatchBegin();
            top.fn();
            hostprof_->dispatchEnd(top.kind, now_, heap_.size());
        } else {
            top.fn();
        }
        ++executed;
    }
    if (hostprof_)
        hostprof_->runEnd(now_, heap_.size());
    return executed;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t executed = 0;
    if (hostprof_)
        hostprof_->runBegin(now_, heap_.size());
    while (!heap_.empty() && heap_.top().when <= until) {
        Entry top = std::move(const_cast<Entry &>(heap_.top()));
        heap_.pop();
        now_ = top.when;
        if (tracer_.wants(TraceCat::Sim))
            tracer_.emit({top.when, 0, TraceCat::Sim, TraceOp::Dispatch, 0,
                          std::int64_t(top.seq), 0, top.span});
        if (hostprof_) {
            hostprof_->dispatchBegin();
            top.fn();
            hostprof_->dispatchEnd(top.kind, now_, heap_.size());
        } else {
            top.fn();
        }
        ++executed;
    }
    if (now_ < until)
        now_ = until;
    if (hostprof_)
        hostprof_->runEnd(now_, heap_.size());
    return executed;
}

void
EventQueue::reset()
{
    heap_ = {};
    now_ = 0;
    nextSeq_ = 0;
}

} // namespace tsm::reference
