#include "runtime/global_memory.hh"

#include <algorithm>

#include "common/log.hh"

namespace tsm {

Bytes
GlobalMemory::capacity() const
{
    return Bytes(machine_->numTsps()) * kLocalMemBytes;
}

std::uint64_t
GlobalMemory::words() const
{
    return std::uint64_t(machine_->numTsps()) * LocalAddr::kWords;
}

void
GlobalMemory::write(const GlobalAddr &addr, VecPtr data)
{
    TSM_ASSERT(addr.device < machine_->numTsps(), "device out of range");
    machine_->chip(addr.device).mem().write(addr.local, std::move(data));
}

VecPtr
GlobalMemory::read(const GlobalAddr &addr) const
{
    TSM_ASSERT(addr.device < machine_->numTsps(), "device out of range");
    return machine_->chip(addr.device).mem().read(addr.local);
}

bool
GlobalMemory::present(const GlobalAddr &addr) const
{
    TSM_ASSERT(addr.device < machine_->numTsps(), "device out of range");
    return machine_->chip(addr.device).mem().present(addr.local);
}

CompiledPushes
GlobalMemory::compile(const std::vector<PushRequest> &pushes,
                      SsnConfig config) const
{
    std::vector<TensorTransfer> transfers;
    std::unordered_map<FlowId, LocalAddr> src_base;
    std::unordered_map<FlowId, LocalAddr> dst_base;
    FlowId flow = 1;
    for (const auto &p : pushes) {
        TSM_ASSERT(p.vectors > 0, "empty push");
        TSM_ASSERT(p.src.local.flatten() + p.vectors <= LocalAddr::kWords,
                   "push source runs past the end of device memory");
        TSM_ASSERT(p.dstAddr.flatten() + p.vectors <= LocalAddr::kWords,
                   "push destination runs past the end of device memory");
        TSM_ASSERT(p.src.device != p.dstDevice,
                   "a local copy needs no network push");
        TensorTransfer t;
        t.flow = flow;
        t.src = p.src.device;
        t.dst = p.dstDevice;
        t.vectors = p.vectors;
        // Leave room before the first departure for the source-side
        // memory read that feeds the send.
        t.earliest = std::max<Cycle>(p.earliest, 16);
        transfers.push_back(t);
        src_base[flow] = p.src.local;
        dst_base[flow] = p.dstAddr;
        ++flow;
    }

    std::string error;
    auto compiled = compileTransfers(machine_->topo(), std::move(transfers),
                                     config, &error, dst_base, src_base);
    TSM_ASSERT(compiled, "pushes do not compile: {}", error);
    CompiledPushes out;
    out.schedule = std::move(compiled->schedule);
    out.programs = std::move(compiled->programs);
    // The destination Write lands one cycle after the last arrival's
    // receive margin.
    out.completion = out.schedule.makespan + kRxMarginCycles + 1;
    return out;
}

Tick
GlobalMemory::execute(const std::vector<PushRequest> &pushes,
                      SsnConfig config)
{
    CompiledPushes compiled = compile(pushes, config);
    EventQueue &eq = machine_->eventq();
    const Tick start = eq.now();
    // Re-base the compiled cycle numbers onto the current time so the
    // batch can launch at any point in the machine's life.
    const Cycle base = DriftClock().tickToCycle(start) + 4;
    for (Program &p : compiled.programs.byChip)
        p.shift(base);
    machine_->launch(std::move(compiled.programs.byChip), start);
    const bool done = machine_->runToCompletion();
    TSM_ASSERT(done, "push program did not complete");
    return eq.now();
}

} // namespace tsm
