#include "telemetry/progress.hh"

#include <cmath>
#include <string_view>

namespace tsm {

ProgressSink::ProgressSink(double megacycles, std::FILE *out) : out_(out)
{
    if (megacycles > 0)
        intervalPs_ =
            Tick(std::llround(megacycles * 1e6 * kCorePeriodPs));
    nextBeat_ = intervalPs_;
}

void
ProgressSink::line(Tick tick)
{
    if (!out_)
        return;
    std::fprintf(out_,
                 "progress: %.2f Mcycle, %llu events, %llu active "
                 "transfers\n",
                 double(tick) / kCorePeriodPs / 1e6,
                 (unsigned long long)events_,
                 (unsigned long long)activeTransfers_);
    std::fflush(out_);
    ++lines_;
}

void
ProgressSink::event(const TraceEvent &ev)
{
    ++events_;
    lastTick_ = std::max(lastTick_, ev.tick);
    if (ev.op == TraceOp::SpanOpen)
        ++activeTransfers_;
    else if (ev.op == TraceOp::SpanClose && activeTransfers_ > 0)
        --activeTransfers_;
    if (intervalPs_ == 0)
        return;
    while (lastTick_ >= nextBeat_) {
        line(nextBeat_);
        nextBeat_ += intervalPs_;
    }
}

void
ProgressSink::finish()
{
    if (finished_ || intervalPs_ == 0)
        return;
    finished_ = true;
    line(lastTick_);
}

} // namespace tsm
