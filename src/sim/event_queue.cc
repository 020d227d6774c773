#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "hostprof/hostprof.hh"

namespace tsm {

EventQueue::EventQueue()
{
    head_.fill(kNone);
    tail_.fill(kNone);
}

void
EventQueue::post(Tick when, Thunk fn, void *ctx, std::uint64_t arg,
                 SpanId span, EventKind kind)
{
    TSM_ASSERT(when >= now_, "cannot schedule an event in the past");
    const bool timed = hostprof_ && hostprof_->insertSampleBegin();
    std::uint32_t e = freeEvents_;
    if (e == kNone) {
        e = std::uint32_t(events_.size());
        events_.emplace_back();
        // The far heap never holds more than the pool: grow the two
        // together, so it never allocates on its own.
        far_.reserve(events_.capacity());
    } else {
        freeEvents_ = events_[e].next;
    }
    events_[e] = {when, nextSeq_++, fn, ctx, arg, span, kNone, kNone, kind};
    // when >= now() >= the ring's start, so only the horizon is checked.
    if (bucketOf(when) < start_ + kCalendarBuckets) {
        link(e);
    } else {
        far_.push_back({when, events_[e].seq, e});
        std::push_heap(far_.begin(), far_.end(), Later{});
    }
    ++pending_;
    if (hostprof_)
        hostprof_->insertEnd(pending_, timed);
}

void
EventQueue::link(std::uint32_t e)
{
    Event &ev = events_[e];
    const std::uint32_t b =
        std::uint32_t(bucketOf(ev.when)) & (kCalendarBuckets - 1);
    // Append after the last event at or before ev.when: every queued
    // event has a smaller seq, so equal ticks stay ahead of it.
    std::uint32_t after = tail_[b];
    if (after != kNone && events_[after].when > ev.when) {
        if (events_[head_[b]].when > ev.when)
            after = kNone;
        else
            while (events_[after].when > ev.when)
                after = events_[after].prev;
    }
    ev.prev = after;
    std::uint32_t &succ = after == kNone ? head_[b] : events_[after].next;
    ev.next = succ;
    succ = e;
    if (ev.next == kNone)
        tail_[b] = e;
    else
        events_[ev.next].prev = e;
    occupied_[b / 64] |= std::uint64_t(1) << (b % 64);
    ++inRing_;
}

void
EventQueue::advance(std::uint64_t start)
{
    start_ = start;
    while (!far_.empty() &&
           bucketOf(far_.front().when) < start_ + kCalendarBuckets) {
        // The heap yields (when, seq) order, so these mostly append.
        const std::uint32_t e = far_.front().event;
        std::pop_heap(far_.begin(), far_.end(), Later{});
        far_.pop_back();
        link(e);
    }
}

bool
EventQueue::dispatchNext(Tick until)
{
    if (inRing_ == 0) {
        if (far_.empty() || far_.front().when > until)
            return false;
        advance(bucketOf(far_.front().when));
    }
    // The first occupied bucket at or after the ring's start.
    const std::uint32_t s = std::uint32_t(start_) & (kCalendarBuckets - 1);
    unsigned w = s / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t(0) << (s % 64));
    while (bits == 0) {
        w = (w + 1) % kWords;
        bits = occupied_[w];
    }
    const std::uint32_t b = w * 64 + unsigned(std::countr_zero(bits));
    const std::uint32_t e = head_[b];
    if (events_[e].when > until)
        return false;
    if (b != s)
        advance(start_ + ((b - s) & (kCalendarBuckets - 1)));

    Event &ev = events_[e];
    head_[b] = ev.next;
    if (ev.next == kNone) {
        tail_[b] = kNone;
        occupied_[b / 64] &= ~(std::uint64_t(1) << (b % 64));
    } else {
        events_[ev.next].prev = kNone;
    }
    --inRing_;
    --pending_;
    // Copy the record and free it before running it: the handler may
    // schedule, reusing the record or growing the pool.
    const Event fired = ev;
    ev.next = freeEvents_;
    freeEvents_ = e;

    now_ = fired.when;
    if (tracer_.wants(TraceCat::Sim))
        tracer_.emit({fired.when, 0, TraceCat::Sim, TraceOp::Dispatch, 0,
                      std::int64_t(fired.seq), 0, fired.span});
    if (hostprof_) {
        hostprof_->dispatchBegin();
        fired.fn(fired.ctx, fired.arg);
        hostprof_->dispatchEnd(fired.kind, now_, pending_);
    } else {
        fired.fn(fired.ctx, fired.arg);
    }
    return true;
}

void
EventQueue::schedule(Tick when, Callback fn, SpanId span, EventKind kind)
{
    std::uint32_t slot;
    if (freeCallbacks_.empty()) {
        slot = std::uint32_t(callbacks_.size());
        callbacks_.push_back(std::move(fn));
    } else {
        slot = freeCallbacks_.back();
        freeCallbacks_.pop_back();
        callbacks_[slot] = std::move(fn);
    }
    post(when, &EventQueue::runCallback, this, slot, span, kind);
}

void
EventQueue::runCallback(void *ctx, std::uint64_t arg)
{
    // Take the callback and free its slot before running it: the
    // callback may schedule, reusing the slot or growing the slab.
    EventQueue &eq = *static_cast<EventQueue *>(ctx);
    const Callback fn = std::move(eq.callbacks_[arg]);
    eq.freeCallbacks_.push_back(std::uint32_t(arg));
    fn();
}

void
EventQueue::scheduleAfter(Tick delay, Callback fn, SpanId span,
                          EventKind kind)
{
    schedule(now_ + delay, std::move(fn), span, kind);
}

std::uint64_t
EventQueue::run(std::uint64_t limit, Tick until)
{
    std::uint64_t executed = 0;
    if (hostprof_)
        hostprof_->runBegin(now_, pending_);
    while (executed < limit && dispatchNext(until))
        ++executed;
    if (hostprof_)
        hostprof_->runEnd(now_, pending_);
    return executed;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t executed = 0;
    if (hostprof_)
        hostprof_->runBegin(now_, pending_);
    while (dispatchNext(until))
        ++executed;
    if (now_ < until) {
        // Nothing pending is due by `until`, so every bucket before its
        // bucket is empty: the ring may start there.
        now_ = until;
        advance(bucketOf(until));
    }
    if (hostprof_)
        hostprof_->runEnd(now_, pending_);
    return executed;
}

void
EventQueue::reset()
{
    events_.clear();
    freeEvents_ = kNone;
    head_.fill(kNone);
    tail_.fill(kNone);
    occupied_.fill(0);
    start_ = 0;
    inRing_ = 0;
    far_.clear();
    callbacks_.clear();
    freeCallbacks_.clear();
    pending_ = 0;
    now_ = 0;
    nextSeq_ = 0;
}

} // namespace tsm
