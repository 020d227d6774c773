/**
 * @file
 * A live multi-TSP system: topology + network + chips + clock
 * domains, with the bring-up sequence (HAC alignment, program
 * emplacement, synchronized launch) the paper's runtime performs
 * before every distributed inference (§3, §5.1).
 */

#ifndef TSM_RUNTIME_SYSTEM_HH
#define TSM_RUNTIME_SYSTEM_HH

#include <memory>
#include <vector>

#include "arch/chip.hh"
#include "net/network.hh"
#include "sync/program_alignment.hh"
#include "sync/sync_tree.hh"

namespace tsm {

/** Construction parameters of a system instance. */
struct SystemConfig
{
    unsigned numTsps = 8;
    NodeWiring wiring = NodeWiring::FullMesh;

    /** Per-chip frequency error drawn from N(0, sigma) ppm. */
    double driftPpmSigma = 0.0;

    /** Enable link latency jitter. */
    bool jitter = false;

    /** Global FEC error model. */
    ErrorModel errors;

    std::uint64_t seed = 1;
};

/** The machine. Owns every simulation object. */
class TsmSystem
{
  public:
    explicit TsmSystem(const SystemConfig &config);

    /** Build on an externally prepared topology (e.g. with disabled
     *  nodes after a failure). The topology is copied. */
    TsmSystem(const SystemConfig &config, Topology topo);

    Topology &topo() { return topo_; }
    EventQueue &eventq() { return eq_; }
    Network &net() { return *net_; }
    TspChip &chip(TspId t) { return *chips_.at(t); }
    unsigned numTsps() const { return unsigned(chips_.size()); }

    /** The simulation's tracer (attach/remove sinks here). */
    Tracer &tracer() { return eq_.tracer(); }

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

    /** Launch payloads bare (no alignment preamble), all at `at`. */
    void launchRaw(std::vector<Program> payloads, Tick at);

    /**
     * Drive the event queue until every launched chip halts or the
     * deadline passes. @return true if all halted.
     */
    bool runToCompletion(Tick deadline = kTickInvalid);

    /** Total uncorrectable errors observed (links + chips). */
    std::uint64_t criticalErrors() const;

  private:
    void buildChips();

    SystemConfig config_;
    Topology topo_;
    EventQueue eq_;
    Rng rng_;
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<TspChip>> chips_;
    std::vector<bool> launched_;
};

} // namespace tsm

#endif // TSM_RUNTIME_SYSTEM_HH
