/**
 * @file
 * The one place the simulated machine is built: the event queue, the
 * network and one chip per TSP. Built from a compiled scenario, its
 * chips are drift-free with their programs loaded and stream 0
 * preloaded, and run() runs them. Built from a SystemConfig, it is the
 * paper's bring-up machine (§3, §5.1): drifting chips with no program,
 * driven by synchronize(), launch() or launchAligned() and
 * runToCompletion(). Between construction and the run a caller may
 * adjust it (per-link wire timing or error model, a payload, a raw
 * sink on the tracer); afterwards the chips and network stay readable.
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

/** Construction parameters of a bring-up machine. */
struct SystemConfig
{
    unsigned numTsps = 8;

    /** Per-chip frequency error drawn from N(0, sigma) ppm. */
    double driftPpmSigma = 0.0;

    /** Enable link latency jitter. */
    bool jitter = false;

    /** Global FEC error model. */
    ErrorModel errors;

    std::uint64_t seed = 1;
};

class Machine
{
  public:
    /**
     * Build the machine for `compiled` (which must outlive it; its
     * topology is used, not copied) with network RNG `seed`; `mbe` > 0
     * injects FEC multi-bit errors at that per-vector rate without
     * perturbing timing.
     */
    Machine(const CompiledScenario &compiled, std::uint64_t seed,
            double mbe = 0.0);

    /**
     * Bring-up machine on `topo`, or on Topology::forSystemSize. Its
     * network RNG is Rng(seed).fork(1); clock drift and power-up
     * phases are drawn from Rng(seed).fork(2).
     */
    explicit Machine(const SystemConfig &config);
    Machine(const SystemConfig &config, Topology topo);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const Topology &topo() const { return topo_; }
    EventQueue &eventq() { return eq_; }
    Network &net() { return net_; }
    TspChip &chip(TspId t) { return *chips_[t]; }
    unsigned numTsps() const { return unsigned(chips_.size()); }

    /** The simulation's tracer (attach/remove sinks here). */
    Tracer &tracer() { return eq_.tracer(); }

    /**
     * Start every chip at tick 0 and run the queue dry; returns the
     * events dispatched. Needs the compiled constructor. Each observer
     * first gets onCompiled({bench, seed}, compiled); its sink sees the
     * schedule replay and the run, and is detached (not finished)
     * afterwards, so one observer may watch several runs. `hostprof`
     * profiles the queue when given.
     */
    std::uint64_t run(const std::vector<Observer *> &observers = {},
                      const std::string &bench = {},
                      HostProfiler *hostprof = nullptr);

    /**
     * Run the HAC spanning-tree alignment for `duration` and stop it.
     * @return worst residual per-edge misalignment in cycles.
     */
    int synchronize(Tick duration = 5 * kPsPerMs);

    /**
     * Emplace per-chip payloads wrapped in the initial-alignment
     * preamble (paper Fig 7(b)) and start every chip at tick 0 of the
     * launch. Chips with empty payloads still participate in
     * alignment (they forward sync tokens).
     */
    void launchAligned(std::vector<Program> payloads);

    /** Load payloads bare (no alignment preamble) and start all at `at`. */
    void launch(std::vector<Program> payloads, Tick at);

    /**
     * Drive the event queue until every chip halts; no event later
     * than `deadline` runs. @return true if all halted.
     */
    bool runToCompletion(Tick deadline = kTickInvalid);

    /** Total uncorrectable errors observed (links + chips). */
    std::uint64_t criticalErrors() const;

  private:
    /** The compiled scenario; null on a bring-up machine. */
    const CompiledScenario *compiled_ = nullptr;

    /** A bring-up machine's topology; empty on the compiled path. */
    Topology ownTopo_;
    const Topology &topo_;

    std::uint64_t seed_;
    EventQueue eq_;
    Network net_;
    std::vector<std::unique_ptr<TspChip>> chips_;
};

} // namespace tsm

#endif // TSM_RUNTIME_MACHINE_HH
