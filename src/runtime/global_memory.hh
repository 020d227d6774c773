/**
 * @file
 * The global shared address space (paper Fig 3, §4.2).
 *
 * The system's SRAM is "logically shared, but physically distributed":
 * every vector word in the machine is named by the rank-5 tensor
 * address [Device, Hemisphere, Slice, Bank, Offset]. Because the
 * compiler knows the total order of every reference, remote data is
 * never *requested* — it is *pushed* by the producing device at a time
 * the consumer's schedule already expects (Fig 9(b) deletes the
 * request leg of the RDMA transaction, halving protocol traffic).
 *
 * GlobalMemory compiles a batch of such pushes through compileTransfers
 * into an SSN schedule plus per-chip programs (source-side reads,
 * scheduled sends, and destination-side writes), launches them on a
 * Machine, and offers host-side peek/poke for setup and verification.
 */

#ifndef TSM_RUNTIME_GLOBAL_MEMORY_HH
#define TSM_RUNTIME_GLOBAL_MEMORY_HH

#include <vector>

#include "runtime/machine.hh"

namespace tsm {

/** One push: `vectors` consecutive words from src to a remote region. */
struct PushRequest
{
    /** First source word (device + local address). */
    GlobalAddr src;

    /** Destination device and first destination word. */
    TspId dstDevice = kTspInvalid;
    LocalAddr dstAddr;

    std::uint32_t vectors = 1;

    /** Earliest injection cycle (producer completion time). */
    Cycle earliest = 0;
};

/** A compiled batch of pushes, ready to load onto the chips. */
struct CompiledPushes
{
    NetworkSchedule schedule;
    ProgramSet programs;

    /** Cycle by which every pushed word is resident at its target. */
    Cycle completion = 0;
};

/** The logically shared, physically distributed memory. */
class GlobalMemory
{
  public:
    /** The memory of `machine`'s chips (the machine must outlive it). */
    explicit GlobalMemory(Machine &machine) : machine_(&machine) {}

    /** Total capacity: 220 MiB per device. */
    Bytes capacity() const;

    /** Number of addressable vector words. */
    std::uint64_t words() const;

    /// @name Host-side access (setup and verification)
    /// @{

    void write(const GlobalAddr &addr, VecPtr data);
    VecPtr read(const GlobalAddr &addr) const;
    bool present(const GlobalAddr &addr) const;

    /// @}

    /**
     * Compile a batch of pushes into a conflict-free schedule and
     * per-chip programs. Requests are scheduled in the given order
     * (flow ids 1..N assigned in order). Aborts with the compile
     * diagnosis on pushes the machine cannot carry.
     */
    CompiledPushes compile(const std::vector<PushRequest> &pushes,
                           SsnConfig config = {}) const;

    /**
     * Convenience: compile, launch, and drain the given pushes on the
     * machine's chips (which must be idle). @return completion tick.
     */
    Tick execute(const std::vector<PushRequest> &pushes,
                 SsnConfig config = {});

  private:
    Machine *machine_;
};

} // namespace tsm

#endif // TSM_RUNTIME_GLOBAL_MEMORY_HH
