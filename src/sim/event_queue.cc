#include "sim/event_queue.hh"

#include <algorithm>

#include "common/log.hh"
#include "hostprof/hostprof.hh"

namespace tsm {

void
EventQueue::schedule(Tick when, Callback fn, SpanId span, EventKind kind)
{
    TSM_ASSERT(when >= now_, "cannot schedule an event in the past");
    const bool timed = hostprof_ && hostprof_->insertSampleBegin();
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = std::uint32_t(slots_.size());
        slots_.push_back({std::move(fn), span, kind});
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = {std::move(fn), span, kind};
    }
    heap_.push_back({when, nextSeq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    if (hostprof_)
        hostprof_->insertEnd(heap_.size(), timed);
}

void
EventQueue::scheduleAfter(Tick delay, Callback fn, SpanId span,
                          EventKind kind)
{
    schedule(now_ + delay, std::move(fn), span, kind);
}

void
EventQueue::dispatchNext()
{
    const Key top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    // Take the callback and free its slot before running it: the
    // callback may schedule, reusing the slot or growing the slab.
    Slot &s = slots_[top.slot];
    const Callback fn = std::move(s.fn);
    const SpanId span = s.span;
    const EventKind kind = s.kind;
    freeSlots_.push_back(top.slot);

    now_ = top.when;
    if (tracer_.wants(TraceCat::Sim))
        tracer_.emit({top.when, 0, TraceCat::Sim, TraceOp::Dispatch, 0,
                      std::int64_t(top.seq), 0, span});
    if (hostprof_) {
        hostprof_->dispatchBegin();
        fn();
        hostprof_->dispatchEnd(kind, now_, heap_.size());
    } else {
        fn();
    }
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t executed = 0;
    if (hostprof_)
        hostprof_->runBegin(now_, heap_.size());
    for (; !heap_.empty() && executed < limit; ++executed)
        dispatchNext();
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
    for (; !heap_.empty() && heap_.front().when <= until; ++executed)
        dispatchNext();
    if (now_ < until)
        now_ = until;
    if (hostprof_)
        hostprof_->runEnd(now_, heap_.size());
    return executed;
}

void
EventQueue::reset()
{
    heap_.clear();
    slots_.clear();
    freeSlots_.clear();
    now_ = 0;
    nextSeq_ = 0;
}

} // namespace tsm
