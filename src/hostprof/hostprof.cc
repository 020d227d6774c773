#include "hostprof/hostprof.hh"

#include <algorithm>
#include <chrono>

#include "common/format.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "hostprof/alloc_hook.hh"
#include "telemetry/render.hh"

namespace tsm {

std::uint64_t
HostClock::nowNs() const
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

namespace {

/** Process-wide default clock. */
const HostClock &
steadyClock()
{
    static const HostClock clock;
    return clock;
}

} // namespace

HostProfiler::HostProfiler(const HostClock *clock, std::uint64_t windowNs)
    : clock_(clock ? clock : &steadyClock()),
      windowNs_(windowNs ? windowNs : 1)
{
}

const HostKindStats &
HostProfiler::kind(EventKind k) const
{
    return kinds_[unsigned(k)];
}

void
HostProfiler::runBegin(Tick simNow, std::size_t depth)
{
    TSM_ASSERT(!inRun_, "nested EventQueue runs are not profiled");
    const std::uint64_t t = clock_->nowNs();
    if (!started_) {
        started_ = true;
        startNs_ = t;
        windowStartNs_ = t;
        windowSimStartPs_ = 0;
    }
    inRun_ = true;
    ++runs_;
    mark_ = t;
    runStartNs_ = t;
    runSimStart_ = simNow;
    queue_.maxDepth = std::max<std::uint64_t>(queue_.maxDepth, depth);
}

void
HostProfiler::dispatchBegin()
{
    const std::uint64_t t = clock_->nowNs();
    queueNs_ += t - mark_;
    mark_ = t;
    curBatch_ = 0;
    inDispatch_ = true;
    allocArmedPrev_ = hostalloc::setArmed(true);
    const hostalloc::Counters c = hostalloc::snapshot();
    allocBase_ = c.allocs;
    allocBytesBase_ = c.bytes;
}

void
HostProfiler::dispatchEnd(EventKind kind, Tick simNow, std::size_t depth)
{
    hostalloc::setArmed(allocArmedPrev_);
    const hostalloc::Counters c = hostalloc::snapshot();
    HostKindStats &ks = kinds_[unsigned(kind)];
    ks.allocs += c.allocs - allocBase_;
    ks.allocBytes += c.bytes - allocBytesBase_;

    const std::uint64_t t = clock_->nowNs();
    ks.wallNs += t - mark_;
    ++ks.events;
    mark_ = t;
    ++events_;
    ++windowEvents_;
    inDispatch_ = false;

    simPs_ += simNow - runSimStart_;
    runSimStart_ = simNow;

    queue_.maxDepth = std::max<std::uint64_t>(queue_.maxDepth, depth);
    if (curBatch_ > 0) {
        ++queue_.batches;
        queue_.maxBatch = std::max(queue_.maxBatch, curBatch_);
    }
    closeWindows(t, depth);
}

bool
HostProfiler::insertSampleBegin()
{
    if ((++insertTick_ & 63) != 0)
        return false;
    insertT0_ = clock_->nowNs();
    return true;
}

void
HostProfiler::insertEnd(std::size_t depth, bool timed)
{
    if (timed) {
        ++queue_.sampledInserts;
        queue_.sampledInsertNs += clock_->nowNs() - insertT0_;
    }
    ++queue_.inserts;
    queue_.maxDepth = std::max<std::uint64_t>(queue_.maxDepth, depth);
    if (inDispatch_)
        ++curBatch_;
}

void
HostProfiler::runEnd(Tick simNow, std::size_t depth)
{
    TSM_ASSERT(inRun_, "runEnd without runBegin");
    const std::uint64_t t = clock_->nowNs();
    queueNs_ += t - mark_;
    mark_ = t;
    wallNs_ += t - runStartNs_;
    simPs_ += simNow - runSimStart_;
    runSimStart_ = simNow;
    queue_.maxDepth = std::max<std::uint64_t>(queue_.maxDepth, depth);
    inRun_ = false;
}

void
HostProfiler::closeWindows(std::uint64_t t, std::size_t depth)
{
    while (t - windowStartNs_ >= windowNs_) {
        HostWindow w;
        w.endNs = windowStartNs_ + windowNs_ - startNs_;
        w.events = windowEvents_;
        w.simPs = simPs_ - windowSimStartPs_;
        w.depth = depth;
        if (windows_.size() < kHostprofMaxWindows)
            windows_.push_back(w);
        else
            ++windowsDropped_;
        windowStartNs_ += windowNs_;
        windowEvents_ = 0;
        windowSimStartPs_ = simPs_;
    }
}

Json
HostProfiler::report() const
{
    const std::uint64_t dispatchNs = wallNs_ - queueNs_;
    const double wallSec = double(wallNs_) / 1e9;
    const double simCycles = double(simPs_) / kCorePeriodPs;

    Json doc = documentHead(kHostprofSchema);
    doc.set("events", events_);
    doc.set("runs", runs_);
    doc.set("sim_ps", simPs_);
    doc.set("sim_cycles", std::int64_t(simCycles));
    doc.set("wall_ns", wallNs_);

    Json sections = Json::object();
    sections.set("queue_ns", queueNs_);
    sections.set("dispatch_ns", dispatchNs);
    doc.set("sections", sections);

    Json kindsArr = Json::array();
    for (unsigned k = 0; k < kNumEventKinds; ++k) {
        const HostKindStats &ks = kinds_[k];
        Json row = Json::object();
        row.set("kind", eventKindName(EventKind(k)));
        row.set("events", ks.events);
        row.set("wall_ns", ks.wallNs);
        row.set("allocs", ks.allocs);
        row.set("alloc_bytes", ks.allocBytes);
        kindsArr.push(std::move(row));
    }
    doc.set("kinds", std::move(kindsArr));

    Json queue = Json::object();
    queue.set("inserts", queue_.inserts);
    queue.set("max_depth", queue_.maxDepth);
    queue.set("batches", queue_.batches);
    queue.set("max_batch", queue_.maxBatch);
    queue.set("sampled_inserts", queue_.sampledInserts);
    queue.set("sampled_insert_ns", queue_.sampledInsertNs);
    doc.set("queue", queue);

    std::uint64_t allocs = 0, allocBytes = 0;
    for (const HostKindStats &ks : kinds_) {
        allocs += ks.allocs;
        allocBytes += ks.allocBytes;
    }
    Json alloc = Json::object();
    alloc.set("hook", hostalloc::hookCompiledIn());
    alloc.set("event_path", allocs);
    alloc.set("bytes", allocBytes);
    alloc.set("per_event",
              events_ ? double(allocs) / double(events_) : 0.0);
    doc.set("allocs", alloc);

    Json rate = Json::object();
    rate.set("events_per_sec",
             wallSec > 0 ? double(events_) / wallSec : 0.0);
    rate.set("cycles_per_sec", wallSec > 0 ? simCycles / wallSec : 0.0);
    // Wall time per unit of simulated time (1000 wall-ns per sim-ps
    // == 1x). Zero when nothing simulated.
    rate.set("slowdown",
             simPs_ ? double(wallNs_) * 1e3 / double(simPs_) : 0.0);
    doc.set("sim_rate", rate);

    doc.set("window_ns", windowNs_);
    Json windowsArr = Json::array();
    auto pushWindow = [&windowsArr](const HostWindow &w) {
        Json row = Json::object();
        row.set("end_ns", w.endNs);
        row.set("events", w.events);
        row.set("sim_ps", w.simPs);
        row.set("depth", w.depth);
        windowsArr.push(std::move(row));
    };
    for (const HostWindow &w : windows_)
        pushWindow(w);
    // The open partial window, if it saw any events: its close is the
    // last attribution mark, not a window boundary.
    if (windowEvents_ > 0 && windows_.size() < kHostprofMaxWindows) {
        HostWindow w;
        w.endNs = mark_ - startNs_;
        w.events = windowEvents_;
        w.simPs = simPs_ - windowSimStartPs_;
        w.depth = 0;
        pushWindow(w);
    }
    doc.set("windows", std::move(windowsArr));
    doc.set("windows_dropped", windowsDropped_);
    return doc;
}

} // namespace tsm
