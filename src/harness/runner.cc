#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "compiler/compiler.hh"

namespace lwsp {
namespace harness {

using core::Scheme;

namespace {

std::atomic<SimEngine> gDefaultEngine{SimEngine::Event};

/** The pds scheme core scheme @p s runs a pds/serve program as (none
 *  for Baseline, which runs the plain build, and for PspIdeal). */
std::optional<pds::PdsScheme>
pdsScheme(Scheme s)
{
    // pdsSchemes lists the machines in pds::PdsScheme order.
    const auto *it =
        std::find(std::begin(pdsSchemes), std::end(pdsSchemes), s);
    if (it == std::end(pdsSchemes))
        return std::nullopt;
    return static_cast<pds::PdsScheme>(it - std::begin(pdsSchemes));
}

/** The sensitivity overrides @p spec sets, on top of @p cfg. */
void
applyOverrides(const RunSpec &spec, core::SystemConfig &cfg)
{
    cfg.engine = spec.engine.value_or(defaultSimEngine());
    if (spec.wpqEntries) {
        cfg.mc.wpqEntries = *spec.wpqEntries;
        // The front-end buffer follows WPQ size (§IV-E).
        cfg.core.febEntries = *spec.wpqEntries;
    }
    if (spec.persistPathGBps)
        cfg.core.pathCyclesPerEntry =
            bandwidthToCyclesPerGranule(*spec.persistPathGBps);
    if (spec.pmReadCycles)
        cfg.mc.pmReadCycles = *spec.pmReadCycles;
    if (spec.pmWriteCycles)
        cfg.mc.pmWriteCycles = *spec.pmWriteCycles;
    if (spec.extraPathLatency)
        cfg.core.pathLatency += *spec.extraPathLatency;
    if (spec.drainInterval)
        cfg.mc.drainInterval = *spec.drainInterval;
    if (spec.victimPolicy)
        cfg.victimPolicy = *spec.victimPolicy;
    if (spec.strictFlushAcks)
        cfg.mc.strictFlushAcks = *spec.strictFlushAcks;
    if (spec.numMcs)
        cfg.numMcs = *spec.numMcs;
    if (spec.topology)
        cfg.topology = *spec.topology;
}

} // namespace

SimEngine
defaultSimEngine()
{
    return gDefaultEngine.load(std::memory_order_relaxed);
}

void
setDefaultSimEngine(SimEngine e)
{
    gDefaultEngine.store(e, std::memory_order_relaxed);
}

core::SystemConfig
makeConfig(const workloads::WorkloadProfile &profile, const RunSpec &spec)
{
    core::SystemConfig cfg;
    cfg.scheme = spec.scheme;
    cfg.core.branchMissRate = profile.branchMissRate;
    cfg.core.hwRegionStores = profile.hwRegionStores;
    applyOverrides(spec, cfg);
    cfg.applySchemeDefaults();
    return cfg;
}

compiler::CompiledProgram
prepareProgram(workloads::Workload &&workload, const RunSpec &spec)
{
    if (!core::schemeUsesCompiledBinary(spec.scheme))
        return compiler::makeUncompiled(std::move(workload.module));

    compiler::CompilerConfig ccfg;
    unsigned wpq = spec.wpqEntries.value_or(64);
    ccfg.storeThreshold = spec.storeThreshold.value_or(wpq / 2);
    if (spec.scheme == Scheme::Cwsp)
        ccfg.insertCheckpointStores = false;

    compiler::LightWspCompiler comp(ccfg);
    return comp.compile(std::move(workload.module));
}

PreparedRun
prepareRun(const RunSpec &spec)
{
    PreparedRun run;
    if (const auto *profile = workloads::findProfile(spec.workload)) {
        workloads::Workload w = workloads::generate(*profile);
        run.threads = spec.threads.value_or(profile->threads);
        run.cfg = makeConfig(*profile, spec);
        // Warm the caches (stand-in for the paper's 10B-instruction
        // fast-forward): measure only the last ~65% of the run.
        run.cfg.warmupInsts =
            w.estimatedInstsPerThread * run.threads * 35 / 100;
        run.prog = prepareProgram(std::move(w), spec);
        return run;
    }

    pds::PdsSpec ps;
    serve::ServeSpec ss;
    std::string perr, serr;
    if (pds::PdsSpec::parse(spec.workload, ps, perr)) {
        run.pds = ps;
    } else if (serve::ServeSpec::parse(spec.workload, ss, serr)) {
        run.serve = serve::buildWorkload(ss);
        run.pds = run.serve->pdsSpec;
    } else {
        throw std::invalid_argument(
            "workload '" + spec.workload +
            "' is not a paper profile, pds spec (" + perr +
            ") or serve spec (" + serr + ")");
    }
    if (spec.threads.value_or(1) != 1)
        throw std::invalid_argument("pds/serve programs are "
                                    "single-threaded: " + spec.workload);

    auto scheme = pdsScheme(spec.scheme);
    if (scheme) {
        unsigned threshold = spec.storeThreshold.value_or(0);
        run.cfg = pds::makePdsConfig(*scheme, spec.mode);
        run.prog = run.serve
                       ? pds::preparePdsProgram(*run.pds, run.serve->ops,
                                                *scheme, spec.mode,
                                                threshold)
                       : pds::preparePdsProgram(*run.pds, *scheme,
                                                spec.mode, threshold);
    } else if (spec.scheme == Scheme::Baseline) {
        run.cfg = pds::makePdsBaselineConfig();
        auto built = run.serve
                         ? pds::buildPdsProgram(*run.pds, false,
                                                run.serve->ops)
                         : pds::buildPdsProgram(*run.pds, false);
        run.prog = compiler::makeUncompiled(std::move(built.module));
    } else {
        throw std::invalid_argument(std::string("scheme ") +
                                    core::schemeName(spec.scheme) +
                                    " does not run pds programs");
    }
    // makePdsConfig already derived the scheme defaults; overrides only
    // pin fields on top (re-deriving would re-scale drain intervals).
    applyOverrides(spec, run.cfg);
    run.served = pds::pdsGeometry(*run.pds).served;
    return run;
}

std::string
PreparedRun::checkSemantics(const mem::MemImage &img) const
{
    if (!pds)
        return {};
    return serve ? pds::checkSemantics(*pds, serve->ops, img)
                 : pds::checkSemantics(*pds, img);
}

RunOutcome
Runner::runUncached(const RunSpec &spec)
{
    PreparedRun run = prepareRun(spec);
    RunOutcome out;
    out.threads = run.threads;
    out.compileStats = run.prog.stats;

    core::System sys(run.cfg, run.prog, out.threads);
    out.result = sys.run();
    if (run.pds) {
        LWSP_ASSERT(out.result.completed, "run did not complete: ",
                    spec.workload, " on ", schemeLabel(spec));
        std::string err = run.checkSemantics(sys.execImage());
        LWSP_ASSERT(err.empty(), "semantic check failed: ",
                    spec.workload, " on ", schemeLabel(spec), ": ", err);
    } else if (!out.result.completed) {
        warn("run did not complete: ", spec.workload, " on ",
             core::schemeName(spec.scheme));
    }
    return out;
}

RunOutcome
Runner::run(const RunSpec &spec, bool *simulated)
{
    std::string key = specKey(spec);
    std::promise<RunOutcome> promise;
    std::shared_future<RunOutcome> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = memo_.find(key);
        if (it == memo_.end()) {
            future = promise.get_future().share();
            memo_.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
        }
    }
    if (simulated)
        *simulated = owner;
    if (owner) {
        // Simulate outside the lock so other points proceed in parallel;
        // same-key requesters block on the shared future instead of
        // re-simulating.
        try {
            promise.set_value(runUncached(spec));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::string
specKey(const RunSpec &spec)
{
    // Fold each optional to the value prepareRun derives from an unset
    // field, so explicit defaults share the unset point's cache entry.
    // A name that is no paper profile keys as a pds/serve program.
    const workloads::WorkloadProfile *profile =
        workloads::findProfile(spec.workload);
    unsigned wpq = spec.wpqEntries.value_or(64);
    unsigned threshold = 0;  // uncompiled binaries never consult it
    if (profile) {
        if (core::schemeUsesCompiledBinary(spec.scheme))
            threshold = spec.storeThreshold.value_or(wpq / 2);
    } else if (auto s = pdsScheme(spec.scheme);
               s && pds::pdsUsesCompiledBinary(*s, spec.mode)) {
        threshold = spec.storeThreshold.value_or(
            compiler::CompilerConfig{}.storeThreshold);
    }
    std::ostringstream os;
    os << spec.workload << '/' << static_cast<int>(spec.scheme) << '/'
       << wpq << '/' << threshold << '/'
       << (spec.victimPolicy ? static_cast<int>(*spec.victimPolicy) : -1)
       << '/' << spec.persistPathGBps.value_or(4.0) << '/'
       << spec.threads.value_or(profile ? profile->threads : 1) << '/'
       << spec.pmReadCycles.value_or(350) << '/'
       << spec.pmWriteCycles.value_or(180) << '/'
       << spec.extraPathLatency.value_or(0) << '/'
       << spec.drainInterval.value_or(1) << '/'
       << spec.strictFlushAcks.value_or(false) << '/'
       << simEngineName(spec.engine.value_or(defaultSimEngine())) << '/'
       << spec.numMcs.value_or(2) << '/'
       << spec.topology.value_or(noc::TopologyConfig{}).toString();
    if (!profile)
        os << (spec.mode == pds::PdsRunMode::Recovery ? "/recovery"
                                                       : "/perf");
    return os.str();
}

const char *
schemeLabel(const RunSpec &spec)
{
    if (spec.scheme == Scheme::NaiveSfence &&
        !workloads::findProfile(spec.workload))
        return pds::pdsSchemeName(pds::PdsScheme::Pmtx);
    return core::schemeName(spec.scheme);
}

RunSpec
Runner::baselineSpec(const RunSpec &spec)
{
    RunSpec base = spec;
    base.scheme = Scheme::Baseline;
    // The baseline keeps Table I memory parameters; CXL media-latency
    // overrides apply to it as well (the paper normalizes within each
    // configuration).
    base.wpqEntries.reset();
    base.storeThreshold.reset();
    base.victimPolicy.reset();
    base.persistPathGBps.reset();
    base.extraPathLatency.reset();
    base.drainInterval.reset();
    base.strictFlushAcks.reset();
    base.mode = pds::PdsRunMode::Perf;
    return base;
}

double
Runner::slowdownVsBaseline(const RunSpec &spec)
{
    Tick base_cycles = run(baselineSpec(spec)).result.cycles;
    Tick scheme_cycles = run(spec).result.cycles;
    return static_cast<double>(scheme_cycles) /
           static_cast<double>(base_cycles);
}

double
persistenceEfficiency(const core::RunResult &r,
                      const core::SystemConfig &cfg)
{
    if (r.boundaries == 0)
        return 100.0;

    // Unoptimized persistence latency: every region pays the full path
    // latency, a banked PM write per entry (the write latency amortized
    // over the iMC's internal banking), and one ACK round trip, fully
    // serialized with execution.
    constexpr double pmWriteBanking = 16.0;
    double entries_per_region =
        r.boundaries
            ? static_cast<double>(std::max<std::uint64_t>(
                  r.wpqFlushedEntries, r.storesRetired)) /
                  static_cast<double>(r.boundaries)
            : 0.0;
    double tp = static_cast<double>(r.boundaries) *
                (static_cast<double>(cfg.core.pathLatency) +
                 entries_per_region *
                     static_cast<double>(cfg.mc.pmWriteCycles) /
                     pmWriteBanking +
                 2.0 * static_cast<double>(cfg.nocHopLatency));

    double twait = static_cast<double>(r.boundaryWaitCycles) +
                   static_cast<double>(r.sbFullCycles) +
                   static_cast<double>(r.febFullCycles);

    if (tp <= 0)
        return 100.0;
    double eff = (tp - twait) / tp * 100.0;
    return std::max(0.0, std::min(100.0, eff));
}

} // namespace harness
} // namespace lwsp
