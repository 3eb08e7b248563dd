/**
 * @file
 * Experiment runner: builds a point's program from its source (a
 * paper-app profile, or a pds/serve spec string), compiles it for the
 * requested scheme, assembles the system configuration (with
 * per-experiment overrides for the sensitivity studies) and runs it.
 *
 * Every run is memoized behind a canonical spec key, so (a) repeated
 * points — the sensitivity figures all revisit the default LightWSP
 * configuration, and every slowdown normalization revisits its Baseline
 * run — simulate exactly once, and (b) the cache can be shared by the
 * worker threads of a parallel sweep: the first thread to request a key
 * simulates while later requesters block on a shared future, never
 * duplicating work. Simulations themselves are deterministic (fixed
 * per-spec RNG seeding, no global mutable state), so a memoized result
 * is bit-identical to a fresh one.
 */

#ifndef LWSP_HARNESS_RUNNER_HH
#define LWSP_HARNESS_RUNNER_HH

#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/system.hh"
#include "pds/pds.hh"
#include "serve/serve.hh"
#include "workloads/generator.hh"

namespace lwsp {
namespace harness {

/** One experiment point. */
struct RunSpec
{
    /**
     * The program source: a paper-app profile name ("rb"), or a
     * pds::PdsSpec ("hash,sz=1,ops=192,...") or serve::ServeSpec
     * ("varnish,sz=1,reqs=64,...") string. The name spaces do not
     * overlap; prepareRun rejects any other string.
     */
    std::string workload;
    /** The machine; pds/serve programs run under pdsSchemes or
     *  Baseline (the plain build, persistence-free). */
    core::Scheme scheme = core::Scheme::LightWsp;
    /** pds/serve sources: each scheme as published (Perf) or with
     *  exact recovery for crash experiments (Recovery; DESIGN.md §13).
     *  Profiles ignore it. */
    pds::PdsRunMode mode = pds::PdsRunMode::Perf;

    // Sensitivity-study overrides (defaults = Table I values).
    std::optional<unsigned> wpqEntries;        ///< Fig 11 (FEB follows)
    std::optional<unsigned> storeThreshold;    ///< Fig 12
    std::optional<mem::VictimPolicy> victimPolicy;  ///< Figs 13/14
    std::optional<double> persistPathGBps;     ///< Fig 15
    std::optional<unsigned> threads;           ///< Fig 16 (profiles)
    std::optional<Tick> pmReadCycles;          ///< Fig 17 (CXL)
    std::optional<Tick> pmWriteCycles;         ///< Fig 17
    std::optional<Tick> extraPathLatency;      ///< Fig 17 (CXL link)
    std::optional<Tick> drainInterval;         ///< CXL media bandwidth
    std::optional<bool> strictFlushAcks;       ///< commit-pipeline ablation
    std::optional<SimEngine> engine;           ///< A/B: event vs cycle
    std::optional<unsigned> numMcs;            ///< Fig 23 (scale-out)
    std::optional<noc::TopologyConfig> topology;  ///< Fig 23 (flat/tree)
};

/**
 * Process-wide engine default for specs that leave RunSpec::engine unset
 * (what --engine=cycle in the bench/CLI front ends flips). Defaults to
 * SimEngine::Event. Results are bit-identical either way; the knob
 * exists for A/B verification and perf comparison.
 */
SimEngine defaultSimEngine();
void setDefaultSimEngine(SimEngine e);

struct RunOutcome
{
    core::RunResult result;
    compiler::CompileStats compileStats;
    unsigned threads = 1;

    // Recovery lineage (run-report schema v1.2). Fresh-boot runs — all
    // of the sensitivity sweeps — leave recovered false; crash/recover
    // drivers (fig22, lwsp_cli crash) fill these from System's lineage.
    bool recovered = false;
    core::RecoveryOutcome recoveryOutcome =
        core::RecoveryOutcome::Recovered;
    unsigned failuresSurvived = 0;
};

/** The five schemes the pds/serve figures compare, in pds::PdsScheme
 *  order: NaiveSfence runs the pmtx undo-log build. */
inline constexpr core::Scheme pdsSchemes[] = {
    core::Scheme::LightWsp, core::Scheme::Capri, core::Scheme::Ppa,
    core::Scheme::Cwsp, core::Scheme::NaiveSfence,
};

/** Build the SystemConfig for a (profile, spec) pair. */
core::SystemConfig makeConfig(const workloads::WorkloadProfile &profile,
                              const RunSpec &spec);

/** Compile @p workload for @p spec's scheme (consumes the module). */
compiler::CompiledProgram
prepareProgram(workloads::Workload &&workload, const RunSpec &spec);

/** A point's program, configured and compiled, ready to simulate. */
struct PreparedRun
{
    core::SystemConfig cfg;
    compiler::CompiledProgram prog;
    unsigned threads = 1;

    std::optional<pds::PdsSpec> pds;  ///< pds/serve: the structure
    std::optional<serve::ServeWorkload> serve;  ///< serve: request tape
    Addr served = 0;  ///< pds/serve: the exec-level served-op counter

    /** pds::checkSemantics on a completed image ("" = pass; always ""
     *  for profile sources). */
    std::string checkSemantics(const mem::MemImage &img) const;
};

/**
 * Everything Runner::run builds before it simulates: a profile is
 * generated, configured (makeConfig + warm-up cut) and compiled; a
 * pds/serve spec gets pds::makePdsConfig (or the baseline config) in
 * spec.mode and pds::preparePdsProgram's binary, overrides on top.
 * Callers set knobs RunSpec lacks (faults, tracing) on the result.
 * @throws std::invalid_argument if the workload is no program source
 *         or the source cannot run under spec's scheme/threads
 */
PreparedRun prepareRun(const RunSpec &spec);

class Runner
{
  public:
    /**
     * Execute one experiment point (memoized; thread-safe). Concurrent
     * calls with distinct specs simulate in parallel; concurrent calls
     * with the same spec simulate once; @p simulated (if given) says
     * whether this call was the one that simulated. pds/serve points
     * must complete and pass PreparedRun::checkSemantics.
     */
    RunOutcome run(const RunSpec &spec, bool *simulated = nullptr);

    /**
     * Cycles of @p spec divided by the matching Baseline run's cycles
     * (same workload, threads and memory configuration). Both runs go
     * through the shared memo, so neither is ever simulated twice.
     */
    double slowdownVsBaseline(const RunSpec &spec);

    /**
     * The Baseline point @p spec is normalized against: scheme-specific
     * overrides reset, workload/threads/PM-latency overrides kept (the
     * paper normalizes within each memory configuration).
     */
    static RunSpec baselineSpec(const RunSpec &spec);

  private:
    RunOutcome runUncached(const RunSpec &spec);

    std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<RunOutcome>> memo_;
};

/**
 * Canonical memo key: every optional folded to the value prepareRun
 * would derive anyway, so a spec with an explicit default (e.g.
 * wpqEntries = 64) and one leaving the field unset map to the same
 * simulation. Must stay in lockstep with prepareRun(). Never throws:
 * reports also key records renamed after a run (storm lifetimes,
 * fabric rows).
 */
std::string specKey(const RunSpec &spec);

/**
 * The scheme as reports name it: core::schemeName, except that a
 * program that is not a paper profile on the NaiveSfence machine is the
 * "pmtx" undo-log baseline.
 */
const char *schemeLabel(const RunSpec &spec);

/**
 * Region-level persistence efficiency, Eq. (1) of the paper:
 * (Tp - Twait) / Tp * 100, where Twait is the scheme's persist-induced
 * core wait time and Tp estimates the unoptimized persistence latency.
 */
double persistenceEfficiency(const core::RunResult &r,
                             const core::SystemConfig &cfg);

} // namespace harness
} // namespace lwsp

#endif // LWSP_HARNESS_RUNNER_HH
