// Kept only because perfbench/bench.cc (the hac-sync workload) still
// includes this header and names TsmSystem; Machine builds every
// machine. Delete once perfbench moves to runtime/machine.hh.
#ifndef TSM_RUNTIME_SYSTEM_HH
#define TSM_RUNTIME_SYSTEM_HH

#include "runtime/machine.hh"

namespace tsm {
using TsmSystem = Machine;
} // namespace tsm

#endif // TSM_RUNTIME_SYSTEM_HH
