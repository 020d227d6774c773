/**
 * @file
 * The one place a compiled scenario meets the simulated machine: the
 * event queue, the network, and one drift-free chip per TSP with its
 * compiled program loaded and stream 0 preloaded. Between construction
 * and run() a caller may adjust it (per-link wire timing, a payload, a
 * raw sink on the tracer); after run() the chips and network stay
 * readable.
 */

#ifndef TSM_RUNTIME_MACHINE_HH
#define TSM_RUNTIME_MACHINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "net/network.hh"
#include "scenario/scenario.hh"
#include "sim/event_queue.hh"
#include "trace/observer.hh"

namespace tsm {

class HostProfiler;

class Machine
{
  public:
    /**
     * Build the machine for `compiled` (which must outlive it) with
     * network RNG `seed`; `mbe` > 0 injects FEC multi-bit errors at
     * that per-vector rate without perturbing timing.
     */
    Machine(const CompiledScenario &compiled, std::uint64_t seed,
            double mbe = 0.0);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    EventQueue &eventq() { return eq_; }
    Network &net() { return net_; }
    TspChip &chip(TspId t) { return *chips_[t]; }

    /**
     * Start every chip at tick 0 and run the queue dry; returns the
     * events dispatched. Each observer first gets onCompiled({bench,
     * seed}, compiled); its sink sees the schedule replay and the run,
     * and is detached (not finished) afterwards, so one observer may
     * watch several runs. `hostprof` profiles the queue when given.
     */
    std::uint64_t run(const std::vector<Observer *> &observers = {},
                      const std::string &bench = {},
                      HostProfiler *hostprof = nullptr);

  private:
    const CompiledScenario &compiled_;
    std::uint64_t seed_;
    EventQueue eq_;
    Network net_;
    std::vector<std::unique_ptr<TspChip>> chips_;
};

} // namespace tsm

#endif // TSM_RUNTIME_MACHINE_HH
