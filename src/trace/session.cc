#include "trace/session.hh"

#include <cstdio>

#include "hostprof/hostprof.hh"
#include "prof/blame.hh"
#include "prof/lanes.hh"
#include "prof/report.hh"
#include "prof/whatif.hh"
#include "telemetry/phase.hh"
#include "telemetry/progress.hh"
#include "telemetry/timeline.hh"
#include "trace/chrome_trace.hh"
#include "trace/digest.hh"
#include "trace/journal.hh"
#include "trace/metrics.hh"

namespace tsm {

void
TraceOptions::registerFlags(CliParser &parser)
{
    parser.addValue("--trace", &tracePath,
                    "write a Chrome trace_event timeline to FILE");
    parser.addFlag("--metrics", &metrics, "print the metrics table at exit");
    parser.addFlag("--digest", &digest,
                   "print the golden timeline digest at exit");
    parser.addValue("--report", &reportPath,
                    "write a JSON profile report to FILE");
    parser.addValue("--journal", &journalPath,
                    "record the canonical event journal to FILE");
    parser.addValue("--timeline", &timelinePath,
                    "write the windowed tsm-timeline-v1 document to FILE");
    parser.addValue("--timeline-window", &timelineWindowCycles,
                    "timeline window width in cycles (default 1024)");
    parser.addValue("--progress", &progressMegacycles,
                    "stderr heartbeat every N simulated megacycles");
    parser.addValue("--hostprof", &hostprofPath,
                    "write the tsm-hostprof-v1 host profile to FILE");
    parser.addValue("--blame", &blamePath,
                    "write the tsm-blame-v1 contention attribution to FILE");
    parser.addValue("--whatif", &whatifPath,
                    "write the tsm-whatif-v1 counterfactual lever table "
                    "to FILE");
    parser.addValue("--lanes", &lanesPath,
                    "write the tsm-parallel-v1 concurrency profile to "
                    "FILE");
}

namespace {

/** Write `doc` to `path`, saying so on stdout (or why not on stderr). */
void
writeDocument(const char *label, const std::string &path, const Json &doc)
{
    std::string error;
    if (writeProfileReport(path, doc, &error))
        std::printf("%s: wrote %s\n", label, path.c_str());
    else
        std::fprintf(stderr, "%s: %s\n", label, error.c_str());
}

} // namespace

template <class T>
T *
TraceSession::add(std::unique_ptr<T> observer,
                  std::type_identity_t<std::function<void(T &)>> report)
{
    T *raw = observer.get();
    entries_.push_back({std::move(observer), [raw, report] {
                            if (report)
                                report(*raw);
                        }});
    observers_.push_back(raw);
    return raw;
}

// The order below is the order reports print at finish(). Three
// observers read another's results there: the timeline hands its
// phase segmentation to the profile report, and the profile summary
// carries the host profile's footer (printing the bare rate line
// when there is no profile). The host profile, blame, what-if and
// lanes documents each ride alone so every other artifact stays
// byte-identical with and without them — they observe the run,
// never perturb it.
TraceSession::TraceSession(TraceOptions opts) : opts_(std::move(opts))
{
    if (!opts_.tracePath.empty())
        add(std::make_unique<ChromeTraceSink>(opts_.tracePath),
            [this](ChromeTraceSink &chrome) {
                std::printf("trace: wrote %llu events to %s\n",
                            (unsigned long long)chrome.eventsWritten(),
                            opts_.tracePath.c_str());
            });
    if (opts_.metrics)
        add(std::make_unique<MetricsSink>(), [](MetricsSink &m) {
            std::printf("metrics:\n%s", m.registry().report().c_str());
        });
    if (opts_.digest)
        digest_ = add(std::make_unique<DigestSink>(), [](DigestSink &d) {
            std::printf("timeline digest: 0x%016llx (%llu events)\n",
                        (unsigned long long)d.digest(),
                        (unsigned long long)d.events());
        });
    if (!opts_.journalPath.empty())
        add(std::make_unique<JournalSink>(opts_.journalPath),
            [this](JournalSink &journal) {
                std::printf("journal: wrote %llu events to %s\n",
                            (unsigned long long)journal.eventsWritten(),
                            opts_.journalPath.c_str());
            });
    if (opts_.progressMegacycles > 0)
        add(std::make_unique<ProgressSink>(opts_.progressMegacycles));
    if (!opts_.timelinePath.empty())
        add(std::make_unique<TimelineSampler>(
                Cycle(opts_.timelineWindowCycles)),
            [this](TimelineSampler &timeline) {
                const PhaseAnalysis analysis = analyzePhases(timeline);
                const Json doc = timeline.report(&analysis);
                std::string error;
                if (writeProfileReport(opts_.timelinePath, doc, &error))
                    std::printf(
                        "timeline: wrote %llu windows to %s\n",
                        (unsigned long long)timeline.numWindows(),
                        opts_.timelinePath.c_str());
                else
                    std::fprintf(stderr, "timeline: %s\n", error.c_str());
                if (profile_)
                    profile_->setPhases(phasesJson(analysis));
            });
    if (!opts_.reportPath.empty())
        profile_ = add(std::make_unique<ProfileCollector>(),
                       [this](ProfileCollector &profile) {
                           const Json report = profile.report();
                           const Json host =
                               hostprof_ ? hostprof_->report() : Json();
                           std::printf("%s", renderProfileSummary(
                                                 report, 5,
                                                 hostprof_ ? &host : nullptr)
                                                 .c_str());
                           writeDocument("profile", opts_.reportPath,
                                         report);
                       });
    if (!opts_.hostprofPath.empty())
        hostprof_ = add(std::make_unique<HostProfiler>(),
                        [this](HostProfiler &hostprof) {
                            const Json report = hostprof.report();
                            if (!profile_)
                                std::printf(
                                    "%s",
                                    renderHostRateLine(&report).c_str());
                            writeDocument("hostprof", opts_.hostprofPath,
                                          report);
                        });
    if (!opts_.blamePath.empty())
        add(std::make_unique<BlameCollector>(), [this](BlameCollector &b) {
            writeDocument("blame", opts_.blamePath, b.report());
        });
    if (!opts_.whatifPath.empty())
        add(std::make_unique<WhatIfCollector>(),
            [this](WhatIfCollector &w) {
                writeDocument("whatif", opts_.whatifPath, w.report());
            });
    if (!opts_.lanesPath.empty())
        add(std::make_unique<LaneCollector>(), [this](LaneCollector &l) {
            writeDocument("lanes", opts_.lanesPath, l.report());
        });
}

TraceSession::~TraceSession()
{
    finish();
}

void
TraceSession::setRun(const std::string &bench, std::uint64_t seed)
{
    for (Observer *o : observers_)
        o->onCompiled({bench, seed}, nullptr);
}

void
TraceSession::attach(Tracer &tracer)
{
    detach();
    tracer_ = &tracer;
    for (Observer *o : observers_)
        if (TraceSink *sink = o->traceSink())
            tracer.addSink(sink);
}

void
TraceSession::detach()
{
    if (!tracer_)
        return;
    for (Observer *o : observers_)
        if (TraceSink *sink = o->traceSink())
            tracer_->removeSink(sink);
    tracer_ = nullptr;
}

std::uint64_t
TraceSession::digest() const
{
    return digest_ ? digest_->digest() : 0;
}

void
TraceSession::finish()
{
    if (finished_)
        return;
    finished_ = true;
    detach();
    for (Entry &e : entries_) {
        e.observer->finish();
        e.report();
    }
}

} // namespace tsm
