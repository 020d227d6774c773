#include <gtest/gtest.h>

#include "compiler/pipeline.hh"
#include "runtime/machine.hh"

namespace tsm {
namespace {

/**
 * The full stack in one test: a 4-stage pipeline's compute blocks and
 * boundary activations execute as real chip programs over the real
 * network — compute blocks burn their exact cycle counts, the SSN
 * schedule moves the activations, and the measured end-to-end latency
 * matches the plan's analytic estimate to within the margins the
 * lowering inserts.
 */
TEST(PipelineOnChips, MeasuredLatencyMatchesPlan)
{
    // Four uniform stages of 5000 compute cycles shipping 32-vector
    // activations between consecutive chips.
    const unsigned stages = 4;
    const Cycle stage_compute = 5000;
    const std::uint32_t act_vectors = 32;

    std::vector<BlockCost> blocks(stages);
    for (auto &b : blocks) {
        b.computeCycles = stage_compute;
        b.activationBytes = Bytes(act_vectors) * kVectorBytes;
    }
    const auto plan =
        planPipeline(blocks, stages, BalanceMode::MovementAware);
    const auto compiled =
        compileTransfers(Topology::makeNode(), plan.transfers(1));
    const Topology &topo = compiled.value().topo;
    const NetworkSchedule &sched = compiled->schedule;
    ASSERT_TRUE(validateSchedule(sched, topo).ok);
    Machine machine(*compiled, 55);

    // Weave each stage's compute into the idle gaps between its
    // scheduled communication instructions — the single-sequence
    // stand-in for the real chip's concurrent functional units. The
    // transfers' earliest cycles already gate sends on the compute.
    // A stage's compute begins once its input activation has fully
    // arrived (that dependence is what the plan's latency sums); the
    // compute then fills the sequence gaps between the stage's own
    // scheduled sends.
    auto weave = [](const Program &comm, Cycle compute_budget,
                    Cycle start_after) {
        Program merged;
        Cycle avail_from = start_after;
        Cycle remaining = compute_budget;
        for (const auto &i : comm.instrs) {
            EXPECT_NE(i.issueAt, kCycleUnscheduled)
                << "comm instructions must be scheduled";
            const Cycle gap =
                i.issueAt > avail_from ? i.issueAt - avail_from : 0;
            const Cycle chunk = std::min(remaining, gap);
            if (chunk > 0) {
                auto &c = merged.emitCompute(chunk);
                c.issueAt = avail_from;
                remaining -= chunk;
            }
            merged.instrs.push_back(i);
            avail_from =
                std::max(avail_from, i.issueAt + 1);
        }
        if (remaining > 0) {
            auto &c = merged.emitCompute(remaining);
            c.issueAt = avail_from;
        }
        merged.emitHalt();
        return merged;
    };
    for (unsigned s = 0; s < stages; ++s) {
        // Stage 0's input comes from the host; later stages wait for
        // their inbound flow (flow id == s) to finish arriving.
        const Cycle input_ready =
            s == 0 ? 0
                   : sched.flows.at(FlowId(s)).lastArrival +
                         kRxMarginCycles + 1;
        machine.chip(s).setStream(0, makeVec(Vec(float(s))));
        machine.chip(s).load(weave(compiled->programs.byChip[s],
                                   stage_compute, input_ready));
    }
    // Non-stage chips keep their compiled forwarding programs: the
    // spreader routes some vectors through them.
    machine.run();

    for (unsigned s = 0; s < stages; ++s)
        ASSERT_TRUE(machine.chip(s).halted()) << "stage " << s;

    // The last stage halts after its compute plus the final
    // activation delivery; the plan's latency counts the four stage
    // occupancies. Allow the lowering margins (receive slack, issue
    // staggering) but require cycle-scale agreement.
    const TspChip &last = machine.chip(stages - 1);
    const Cycle measured = last.clock().tickToCycle(last.stats().haltTick);
    const Cycle planned = plan.latencyCycles();
    EXPECT_GE(measured + 64, planned);
    // Upper slack: per-boundary flight + margins the analytic plan
    // folds into overlap.
    EXPECT_LE(measured, planned + stages * (flightCycles(
                                                LinkClass::IntraNode) +
                                            forwardCycles()));

    // Data integrity: stage s+1 received stage s's activation (plus
    // possibly some forwarded vectors of other flows).
    for (unsigned s = 1; s < stages; ++s)
        EXPECT_GE(machine.chip(s).stats().flitsReceived, act_vectors);
}

TEST(PipelineOnChips, ComputeGatesCommunication)
{
    // A transfer whose earliest is after a compute block must depart
    // exactly when the schedule says — not when the data "happens" to
    // be ready. Verify the first departure honours the gate.
    TensorTransfer t;
    t.flow = 1;
    t.src = 0;
    t.dst = 1;
    t.vectors = 4;
    t.earliest = 9999;
    const auto compiled = compileTransfers(Topology::makeNode(), {t});
    EXPECT_EQ(compiled.value().schedule.flows.at(1).firstDeparture, 9999u);

    Machine machine(*compiled, 55);
    Program src;
    src.emitCompute(9999).issueAt = 0;
    for (const auto &i : compiled->programs.byChip[0].instrs)
        src.instrs.push_back(i);
    src.emitHalt();
    machine.chip(0).load(std::move(src));
    machine.run();
    EXPECT_EQ(machine.chip(1).stats().flitsReceived, 4u);
}

} // namespace
} // namespace tsm
