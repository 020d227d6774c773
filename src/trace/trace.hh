/**
 * @file
 * Cycle-accurate timeline tracing.
 *
 * Every timing-visible action in the simulator — an event-queue
 * dispatch, an instruction issue, a flit on a link, an SSN transfer
 * leg, a HAC alignment round — can be emitted as a `TraceEvent` into a
 * `Tracer`, which fans it out to attached `TraceSink`s. The paper's
 * determinism claim becomes testable through this layer: a sink that
 * folds the full event stream into a digest (trace/digest.hh) pins the
 * entire run, while a Chrome trace_event sink (trace/chrome_trace.hh)
 * makes the same stream inspectable in chrome://tracing or Perfetto.
 *
 * The hot path is designed for zero cost when nothing is attached:
 * call sites guard with `tracer.wants(cat)`, a single bitmask test
 * against the union of the attached sinks' category masks.
 */

#ifndef TSM_TRACE_TRACE_HH
#define TSM_TRACE_TRACE_HH

#include <cstdint>
#include <vector>

#include "arch/isa.hh"
#include "common/units.hh"
#include "trace/observer.hh"
#include "trace/span.hh"

namespace tsm {

/** Subsystem a trace event originates from. */
enum class TraceCat : std::uint8_t
{
    Sim,     ///< event-queue internals (one event per dispatch)
    Chip,    ///< instruction issue/execution, halts
    Net,     ///< link-level flit transmit/deliver, FEC detections
    Ssn,     ///< scheduled-transfer legs (flow/seq sends and receives)
    Sync,    ///< HAC alignment traffic and adjustments
    Runtime, ///< system bring-up phases (synchronize, launch, completion)
};

inline constexpr unsigned kNumTraceCats = 6;

/** Short lowercase name of a category ("chip", "net", ...). */
const char *traceCatName(TraceCat cat);

/** Bit of one category in a category mask. */
constexpr unsigned
traceCatBit(TraceCat c)
{
    return 1u << unsigned(c);
}

/** Mask selecting every category. */
inline constexpr unsigned kTraceAllCats = (1u << kNumTraceCats) - 1;

/**
 * Default mask: everything except the per-dispatch Sim firehose, which
 * only digest-style sinks normally want.
 */
inline constexpr unsigned kTraceDefaultCats =
    kTraceAllCats & ~traceCatBit(TraceCat::Sim);

/**
 * What happened: the closed vocabulary of traced events. Values below
 * kNumOps are instruction retires, one per opcode (`TraceOp(i.op)`);
 * the named events follow. traceOpName() renders each one, and is the
 * only place their names are spelled.
 */
enum class TraceOp : std::uint8_t
{
    // Chip
    Halt = kNumOps, ///< the chip stopped: HALT retired or it ran off the end
    PollWait,       ///< a PollRecv found nothing and waits an epoch
    // Sim
    Dispatch, ///< one event-queue dispatch
    // Net
    Tx,  ///< a data flit leaves on a link
    Rx,  ///< a flit (data or control) arrives over a link
    Mbe, ///< FEC detected a multi-bit error on a data flit
    Ctl, ///< a control flit leaves on a link
    // Ssn
    Send,      ///< a tagged vector is sent
    Recv,      ///< a tagged vector is consumed
    Corrupt,   ///< a tagged vector is consumed with a corrupt payload
    SpanOpen,  ///< a vector's causal span opens at its source
    SpanClose, ///< ... and closes at its final destination
    Hop,       ///< schedule replay: one scheduled link leg
    Flow,      ///< schedule replay: one flow's summary
    Makespan,  ///< schedule replay: the schedule's makespan
    // Sync
    HacTx,  ///< a parent sends its HAC value to a child
    HacAdj, ///< a child adjusts its HAC
    // Runtime
    Synchronize,   ///< system-wide HAC synchronization phase
    LaunchAligned, ///< program launch behind the alignment preamble
    LaunchRaw,     ///< program launch at a fixed tick
    Completed,     ///< every launched chip halted
};

/** Rendered name of an event: the opcode mnemonic for an instruction
 *  retire ("SEND"), else the event's lowercase name ("span_open"). */
const char *traceOpName(TraceOp op);

/**
 * One traced occurrence: a fixed-size record with no pointers, so it
 * can be copied, compared and stored freely.
 */
struct TraceEvent
{
    /** Start of the event on the global picosecond timeline. */
    Tick tick = 0;

    /** Duration in picoseconds; 0 renders as an instant event. */
    Tick dur = 0;

    TraceCat cat = TraceCat::Sim;

    TraceOp op = TraceOp::Dispatch;

    /** Acting entity: TSP id, link id, flow id — category-dependent. */
    std::uint32_t actor = 0;

    /** Two free payload words (flow/seq, delta/count, ...). */
    std::int64_t a = 0;
    std::int64_t b = 0;

    /**
     * Causal transfer span this event belongs to (trace/span.hh), or
     * kSpanNone. Lets sinks stitch one vector's journey back together
     * across chips and link legs.
     */
    SpanId span = kSpanNone;
};

/** Receiver of trace events; an Observer whose sink is itself. */
class TraceSink : public Observer
{
  public:
    /** Categories this sink wants; consulted at attach time. */
    virtual unsigned categoryMask() const { return kTraceDefaultCats; }

    /** One event whose category is in categoryMask(). */
    virtual void event(const TraceEvent &ev) = 0;

    TraceSink *traceSink() override { return this; }
};

/**
 * Fan-out point instrumented code emits into. Sinks are borrowed, not
 * owned; detach a sink before destroying it.
 */
class Tracer
{
  public:
    /** Attach a sink (its categoryMask() is sampled now). */
    void addSink(TraceSink *sink);

    /** Detach a previously attached sink (no-op if absent). */
    void removeSink(TraceSink *sink);

    /** True if any attached sink wants category `c` — the hot guard. */
    bool wants(TraceCat c) const { return mask_ & traceCatBit(c); }

    /** True if any sink is attached at all. */
    bool active() const { return mask_ != 0; }

    std::size_t numSinks() const { return sinks_.size(); }

    /** Deliver `ev` to every sink whose mask includes its category. */
    void emit(const TraceEvent &ev);

    /** Forward finish() to every attached sink. */
    void finishAll();

  private:
    struct Attached
    {
        TraceSink *sink;
        unsigned mask;
    };

    std::vector<Attached> sinks_;
    unsigned mask_ = 0;
};

} // namespace tsm

#endif // TSM_TRACE_TRACE_HH
