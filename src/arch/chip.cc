#include "arch/chip.hh"

#include "common/format.hh"

#include "common/log.hh"

namespace tsm {

namespace {

/** Positive modulus. */
std::int64_t
posMod(std::int64_t v, std::int64_t m)
{
    const std::int64_t r = v % m;
    return r < 0 ? r + m : r;
}

/** Map a mod-252 difference to the signed range [-126, 126). */
int
signedEpochDelta(std::int64_t diff)
{
    const std::int64_t m = posMod(diff, kHacPeriodCycles);
    return int(m >= kHacPeriodCycles / 2 ? m - kHacPeriodCycles : m);
}

} // namespace

TspChip::TspChip(TspId id, Network &net, DriftClock clock)
    : SimObject(format("tsp{}", id), net.eventq()), id_(id), net_(&net),
      clock_(clock)
{
    net_->attachSink(id_, this);
}

unsigned
TspChip::hacAt(Cycle c) const
{
    return unsigned(posMod(std::int64_t(c) + hacOffset_, kHacPeriodCycles));
}

unsigned
TspChip::sac() const
{
    return unsigned(
        posMod(std::int64_t(localCycle()) + sacOffset_, kHacPeriodCycles));
}

void
TspChip::adjustHac(int delta_cycles)
{
    hacOffset_ += delta_cycles;
}

int
TspChip::sacHacDelta() const
{
    return signedEpochDelta(sacOffset_ - hacOffset_);
}

void
TspChip::realignSac()
{
    sacOffset_ = hacOffset_;
}

Tick
TspChip::nextEpochStart(Tick t) const
{
    // Find the first cycle boundary >= t whose HAC phase is zero.
    const Cycle c = clock_.cycleAtOrAfter(t);
    const unsigned phase = hacAt(c);
    const Cycle wait = phase == 0 ? 0 : Cycle(kHacPeriodCycles - phase);
    return clock_.cycleToTick(c + wait);
}

void
TspChip::load(Program program)
{
    TSM_ASSERT(!running_, "cannot load a program while running");
    program_ = std::move(program);
    for (const Instr &i : program_.instrs)
        if (i.op == Op::Recv || i.op == Op::PollRecv) {
            TSM_ASSERT(i.port < kPortsPerTsp,
                       "tsp{}: receive on port {}, which is out of range",
                       std::uint32_t{0} + id_, unsigned(i.port));
            rxFifo_[i.port].reserve(1);
        }
    pc_ = 0;
    stats_.haltTick = kTickInvalid;
}

void
TspChip::start(Tick at)
{
    TSM_ASSERT(!running_, "chip already running");
    TSM_ASSERT(at >= now(), "cannot start in the past");
    running_ = true;
    pc_ = 0;
    scheduleIssue(at);
}

void
TspChip::scheduleIssue(Tick t)
{
    eventq().post(
        t,
        [](void *chip, std::uint64_t) {
            static_cast<TspChip *>(chip)->issue();
        },
        this, 0, kSpanNone, EventKind::ChipIssue);
}

void
TspChip::issue()
{
    Tracer &tracer = eventq().tracer();

    if (pc_ >= program_.instrs.size()) {
        // Fell off the end: treat as halt.
        running_ = false;
        stats_.haltTick = now();
        if (tracer.wants(TraceCat::Chip))
            tracer.emit({now(), 0, TraceCat::Chip, TraceOp::Halt, id_,
                         std::int64_t(pc_), std::int64_t(localCycle())});
        if (onHalt_)
            onHalt_();
        return;
    }

    const Instr &i = program_.instrs[pc_];

    // Honour the static schedule: wait for the assigned issue cycle.
    if (i.issueAt != kCycleUnscheduled) {
        const Tick scheduled = clock_.cycleToTick(i.issueAt);
        if (scheduled > now()) {
            scheduleIssue(scheduled);
            return;
        }
        if (scheduled < now())
            panic("tsp{}: instruction {} ({}) reached {}ps after its "
                  "scheduled issue — static schedule violated",
                  id_, pc_, i.str(), now() - scheduled);
    }

    const Tick next = execute(i);
    ++stats_.instrsExecuted;

    if (tracer.wants(TraceCat::Chip)) {
        // One event per retired instruction; duration is its occupancy
        // of the issue slot (0 for a failed poll, which retires later).
        const Tick dur =
            next != kTickInvalid && next > now() ? next - now() : 0;
        tracer.emit({now(), dur, TraceCat::Chip, TraceOp(i.op), id_,
                     std::int64_t(pc_), std::int64_t(localCycle())});
    }

    if (i.op == Op::Halt) {
        running_ = false;
        stats_.haltTick = now();
        if (tracer.wants(TraceCat::Chip))
            tracer.emit({now(), 0, TraceCat::Chip, TraceOp::Halt, id_,
                         std::int64_t(pc_), std::int64_t(localCycle())});
        if (onHalt_)
            onHalt_();
        return;
    }
    if (i.op == Op::PollRecv && next == kTickInvalid) {
        // Poll failed; retry the same instruction next epoch. The wait
        // is a stall the profiler attributes to the SXM receive path.
        --stats_.instrsExecuted;
        const Tick retry = nextEpochStart(now() + 1);
        if (tracer.wants(TraceCat::Chip))
            tracer.emit({now(), retry - now(), TraceCat::Chip,
                         TraceOp::PollWait, id_, std::int64_t(pc_),
                         std::int64_t(localCycle())});
        scheduleIssue(retry);
        return;
    }

    ++pc_;
    scheduleIssue(next);
}

LinkId
TspChip::portLink(unsigned port) const
{
    const auto link = net_->topo().linkAtPort(id_, port);
    TSM_ASSERT(link.has_value(), "no link connected at tsp{} port {}",
               std::uint32_t{0} + id_, port);
    return *link;
}

const RxRing &
TspChip::rxRing(unsigned port) const
{
    TSM_ASSERT(port < kPortsPerTsp,
               "tsp{}: receive FIFO port {} is out of range",
               std::uint32_t{0} + id_, port);
    return rxFifo_[port];
}

VecPtr
TspChip::consumeRx(const Instr &i)
{
    auto &fifo = rxFifo_[i.port];
    TSM_ASSERT(!fifo.empty(),
               "tsp{} port{}: scheduled receive underflow — no vector has "
               "arrived; the SSN schedule is broken",
               std::uint32_t{0} + id_, unsigned(i.port));
    ArrivedFlit af = fifo.pop();
    ++stats_.flitsReceived;
    Tracer &tracer = eventq().tracer();
    if (af.flit.flow != 0 && tracer.wants(TraceCat::Ssn)) {
        tracer.emit({now(), 0, TraceCat::Ssn,
                     af.flit.corrupt ? TraceOp::Corrupt : TraceOp::Recv, id_,
                     std::int64_t(af.flit.flow), std::int64_t(af.flit.seq),
                     af.flit.span});
        // The consuming receive at the final destination closes the
        // vector's causal span: its journey across every hop is over.
        if (i.lastHop && isDataFlow(af.flit.flow))
            tracer.emit({now(), 0, TraceCat::Ssn, TraceOp::SpanClose, id_,
                         std::int64_t(af.flit.flow),
                         std::int64_t(af.flit.seq),
                         spanParent(af.flit.span)});
    }
    if (i.flow != 0) {
        TSM_ASSERT(af.flit.flow == i.flow && af.flit.seq == i.seq,
                   "tsp{} port{}: receive tag mismatch (expected flow {} "
                   "seq {}, got flow {} seq {}) — total order violated",
                   std::uint32_t{0} + id_, unsigned(i.port), i.flow, i.seq,
                   af.flit.flow, af.flit.seq);
    }
    if (af.flit.corrupt) {
        ++stats_.corruptReceived;
        return nullptr;
    }
    return af.flit.payload;
}

Tick
TspChip::execute(const Instr &i)
{
    const Cycle local = localCycle();
    const auto cycles_hence = [this, local](Cycle n) {
        return clock_.cycleToTick(local + n);
    };
    Tick next = cycles_hence(1);

    switch (i.op) {
      case Op::Nop:
        next = cycles_hence(Cycle(std::max<std::int64_t>(1, i.imm)));
        break;

      case Op::Compute:
        stats_.computeCycles += std::uint64_t(i.imm);
        next = cycles_hence(Cycle(std::max<std::int64_t>(1, i.imm)));
        break;

      case Op::Halt:
        break;

      case Op::Read:
        streams_[i.dst] = mem_.read(i.addr);
        break;

      case Op::Write:
        mem_.write(i.addr, streams_[i.srcA]);
        break;

      case Op::VAdd:
      case Op::VSub:
      case Op::VMul: {
        const VecPtr a = streams_[i.srcA];
        const VecPtr b = streams_[i.srcB];
        if (a && b) {
            Vec r = i.op == Op::VAdd   ? a->add(*b)
                    : i.op == Op::VSub ? a->sub(*b)
                                       : a->mul(*b);
            streams_[i.dst] = makeVec(r);
        } else {
            streams_[i.dst] = nullptr;
        }
        break;
      }

      case Op::VScale: {
        const VecPtr a = streams_[i.srcA];
        streams_[i.dst] = a ? makeVec(a->scale(i.fimm)) : nullptr;
        break;
      }

      case Op::VRsqrt: {
        const VecPtr a = streams_[i.srcA];
        streams_[i.dst] = a ? makeVec(a->rsqrt()) : nullptr;
        break;
      }

      case Op::VSplat:
        streams_[i.dst] = makeVec(Vec(i.fimm));
        break;

      case Op::VCopy:
        streams_[i.dst] = streams_[i.srcA];
        break;

      case Op::MxmLoadWeights:
        TSM_ASSERT(i.imm >= 0 && i.imm < std::int64_t(kVectorLanesInt8),
                   "MXM weight row out of range");
        if (!mxmWeights_)
            mxmWeights_ = std::make_unique<
                std::array<VecPtr, kVectorLanesInt8>>();
        (*mxmWeights_)[std::size_t(i.imm)] = streams_[i.srcA];
        mxmRows_ = std::max(mxmRows_, unsigned(i.imm) + 1);
        break;

      case Op::MxmClear:
        if (mxmWeights_)
            mxmWeights_->fill(nullptr);
        mxmRows_ = 0;
        break;

      case Op::MxmMatMul: {
        // One [1 x K] x [K x 320] sub-operation (paper §5.2): the
        // activation's first K=mxmRows_ lanes each scale a weight row;
        // the output vector is the lane-wise sum.
        const VecPtr act = streams_[i.srcA];
        if (act) {
            Vec out;
            for (unsigned k = 0; k < mxmRows_; ++k) {
                const VecPtr &row = (*mxmWeights_)[k];
                if (!row)
                    continue;
                const float a = (*act)[k];
                const Vec &w = *row;
                for (unsigned j = 0; j < Vec::kLanes; ++j)
                    out[j] += a * w[j];
            }
            streams_[i.dst] = makeVec(out);
        } else {
            streams_[i.dst] = nullptr;
        }
        break;
      }

      case Op::SxmRotate: {
        const VecPtr a = streams_[i.srcA];
        if (a) {
            Vec r;
            const auto n = unsigned(posMod(i.imm, Vec::kLanes));
            for (unsigned j = 0; j < Vec::kLanes; ++j)
                r[(j + n) % Vec::kLanes] = (*a)[j];
            streams_[i.dst] = makeVec(r);
        } else {
            streams_[i.dst] = nullptr;
        }
        break;
      }

      case Op::Send: {
        Flit flit;
        flit.flow = i.flow;
        flit.seq = i.seq;
        flit.payload = streams_[i.srcA];
        if (i.flow != 0)
            flit.span = spanChild(transferSpan(i.flow, i.seq), i.hop);
        const SpanId span = flit.span;
        // The source chip's first Send opens the vector's causal span;
        // forwarded hops re-enter it as leg children.
        if (i.hop == 0 && isDataFlow(i.flow) &&
            eventq().tracer().wants(TraceCat::Ssn))
            eventq().tracer().emit({now(), 0, TraceCat::Ssn,
                                    TraceOp::SpanOpen, id_,
                                    std::int64_t(i.flow), std::int64_t(i.seq),
                                    spanParent(span)});
        net_->transmit(id_, portLink(i.port), std::move(flit), now());
        ++stats_.flitsSent;
        if (i.flow != 0 && eventq().tracer().wants(TraceCat::Ssn))
            eventq().tracer().emit({now(), 0, TraceCat::Ssn, TraceOp::Send,
                                    id_, std::int64_t(i.flow),
                                    std::int64_t(i.seq), span});
        // Hand-written (unscheduled) programs self-pace at the port
        // serialization rate; SSN schedules control pacing themselves.
        if (i.issueAt == kCycleUnscheduled)
            next = cycles_hence(kVectorSerializationCycles);
        break;
      }

      case Op::Recv:
        streams_[i.dst] = consumeRx(i);
        break;

      case Op::PollRecv:
        if (rxFifo_[i.port].empty())
            return kTickInvalid; // caller re-polls next epoch
        streams_[i.dst] = consumeRx(i);
        break;

      case Op::Sync:
        // In the single-sequence model SYNC is the point where all
        // functional units are already implicitly aligned; it consumes
        // its issue slot only.
        break;

      case Op::Notify:
        // Chip-wide restart signal with fixed, known latency.
        next = cycles_hence(kNotifyLatency);
        break;

      case Op::Deskew: {
        const Tick epoch = nextEpochStart(now());
        stats_.deskewStallCycles += clock_.tickToCycle(epoch) - local;
        next = std::max(epoch, cycles_hence(0));
        if (next <= now())
            next = now();
        break;
      }

      case Op::Transmit: {
        Flit flit;
        flit.flow = kFlowSyncToken;
        flit.meta = i.imm;
        flit.span =
            transferSpan(kFlowSyncToken, std::uint32_t(i.imm) & 0xffffff);
        net_->controlTransmit(id_, portLink(i.port), std::move(flit));
        break;
      }

      case Op::RuntimeDeskew: {
        // Stall for the target plus the accumulated drift: if SAC is
        // ahead of HAC the local clock ran fast and must wait longer
        // (paper §3.3); then local time is re-aligned with global time.
        const int delta = sacHacDelta();
        const std::int64_t stall =
            std::max<std::int64_t>(1, i.imm + delta);
        stats_.deskewStallCycles += std::uint64_t(stall);
        realignSac();
        next = cycles_hence(Cycle(stall));
        break;
      }
    }

    if (next <= now())
        next = now() + 1;
    return next;
}

void
TspChip::flitArrived(unsigned port, const ArrivedFlit &af)
{
    if (af.flit.flow == kFlowHacExchange) {
        if (controlHandlers_[port])
            controlHandlers_[port](port, af);
        return;
    }
    rxFifo_[port].push(af);
}

} // namespace tsm
