/**
 * @file
 * Allocation counting on the event path.
 *
 * The host profiler wants to know how many heap allocations one
 * simulated event costs (std::function captures, heap growth,
 * per-flit vectors): allocations are the main argument for
 * arena-allocated flat event records, so the count must be measured
 * before it can be claimed away. alloc_hook.cc replaces the
 * global `operator new`/`operator delete` with malloc/free wrappers
 * that bump a thread-local counter *only while armed*; the profiler
 * arms the counter around each event callback. When never armed the
 * cost per allocation is one thread-local flag test.
 *
 * The replacement is compiled in only when TSM_HOSTPROF_ALLOC_HOOK is
 * defined (the default; see the CMake option of the same name). With
 * the hook compiled out, `armed()` stays false and every count reads
 * zero — reports mark the difference via the `alloc_hook` field.
 */

#ifndef TSM_HOSTPROF_ALLOC_HOOK_HH
#define TSM_HOSTPROF_ALLOC_HOOK_HH

#include <cstdint>

namespace tsm {
namespace hostalloc {

/** Running totals of armed allocations on this thread. */
struct Counters
{
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/** True when the replacement operator new is linked in. */
bool hookCompiledIn();

/**
 * Arm or disarm counting on the calling thread. Returns the previous
 * state so nested scopes can restore it.
 */
bool setArmed(bool armed);

/** Current totals for the calling thread (monotonic while armed). */
Counters snapshot();

} // namespace hostalloc
} // namespace tsm

#endif // TSM_HOSTPROF_ALLOC_HOOK_HH
