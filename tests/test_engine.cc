/**
 * @file
 * Engine equivalence: the discrete-event scheduler (SimEngine::Event)
 * must be bit-identical to the legacy cycle-stepped loop
 * (SimEngine::Cycle). "Bit-identical" means every RunResult counter,
 * every dumped stat line, every registered-stat JSON byte, every trace
 * event and both memory images — across clean runs, oversubscribed
 * scheduling, crash drains (single and double failure), hardware fault
 * injection and fuzzer-generated programs.
 *
 * A separate test runs the event engine with verifyWakeups on, which
 * asserts at every scheduling decision that the wakeup heap's minimum
 * is never later than a full linear rescan — the "nobody changed state
 * without rearm()" cross-check.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "compiler/compiler.hh"
#include "core/system.hh"
#include "fuzz/random_program.hh"
#include "fuzz/random_workload.hh"
#include "harness/runner.hh"
#include "workloads/generator.hh"
#include "workloads/profile.hh"

using namespace lwsp;

namespace {

void
expectResultEq(const core::RunResult &a, const core::RunResult &b,
               const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.instsRetired, b.instsRetired) << what;
    EXPECT_EQ(a.storesRetired, b.storesRetired) << what;
    EXPECT_EQ(a.boundaries, b.boundaries) << what;
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.boundaryWaitCycles, b.boundaryWaitCycles) << what;
    EXPECT_EQ(a.sbFullCycles, b.sbFullCycles) << what;
    EXPECT_EQ(a.febFullCycles, b.febFullCycles) << what;
    EXPECT_EQ(a.snoopBlockedCycles, b.snoopBlockedCycles) << what;
    EXPECT_EQ(a.lockBlockedCycles, b.lockBlockedCycles) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.staleLoads, b.staleLoads) << what;
    EXPECT_EQ(a.bufferConflicts, b.bufferConflicts) << what;
    EXPECT_EQ(a.divertedVictims, b.divertedVictims) << what;
    EXPECT_EQ(a.wpqLoadHits, b.wpqLoadHits) << what;
    EXPECT_EQ(a.wpqFlushedEntries, b.wpqFlushedEntries) << what;
    EXPECT_EQ(a.wpqFallbackFlushes, b.wpqFallbackFlushes) << what;
    EXPECT_EQ(a.wpqOverflowEvents, b.wpqOverflowEvents) << what;
    EXPECT_EQ(a.maxWpqOccupancy, b.maxWpqOccupancy) << what;
    EXPECT_EQ(a.regionsCommitted, b.regionsCommitted) << what;
    EXPECT_DOUBLE_EQ(a.avgRegionInsts, b.avgRegionInsts) << what;
    EXPECT_DOUBLE_EQ(a.avgRegionStores, b.avgRegionStores) << what;
}

/** Everything observable about one System run, captured for diffing. */
struct EngineRun
{
    core::RunResult result;
    std::string stats;           ///< stat-registry text dump
    std::string statsJson;       ///< stat-registry JSON
    std::vector<trace::Event> events;
    mem::MemImage pm;
    mem::MemImage exec;
    bool crashed = false;
    core::CrashReport crash;
};

/**
 * Run @p prog once under @p engine. fail_at > 0 crashes at that cycle
 * (via runWithPowerFailure, or runWithFailureStorm with one drain
 * interrupt when drain_iters >= 0).
 */
EngineRun
execute(core::SystemConfig cfg, const compiler::CompiledProgram &prog,
        unsigned threads, SimEngine engine, Tick fail_at = 0,
        int drain_iters = -1)
{
    cfg.engine = engine;
    core::System sys(cfg, prog, threads);
    EngineRun out;
    if (fail_at == 0)
        out.result = sys.run();
    else if (drain_iters < 0)
        out.result = sys.runWithPowerFailure(fail_at);
    else
        out.result = sys.runWithFailureStorm(
            fail_at, {static_cast<unsigned>(drain_iters)});

    {
        stats::Registry reg;
        sys.registerStats(reg);
        std::ostringstream os, js;
        reg.dump(os);
        out.stats = os.str();
        reg.dumpJson(js);
        out.statsJson = js.str();
    }
    if (const auto *sink = sys.traceSink())
        out.events = sink->snapshot();
    out.pm = sys.pmImage().clone();
    out.exec = sys.execImage().clone();
    out.crashed = sys.crashed();
    out.crash = sys.crashReport();
    return out;
}

bool
sameEvent(const trace::Event &a, const trace::Event &b)
{
    return a.tick == b.tick && a.type == b.type && a.unit == b.unit &&
           a.thread == b.thread && a.region == b.region &&
           a.addr == b.addr && a.value == b.value && a.aux == b.aux;
}

void
expectRunsEq(const EngineRun &ev, const EngineRun &cy,
             const std::string &what)
{
    expectResultEq(ev.result, cy.result, what);
    EXPECT_EQ(ev.stats, cy.stats) << what << ": stat-registry dump differs";
    EXPECT_EQ(ev.statsJson, cy.statsJson)
        << what << ": stat-registry JSON differs";
    EXPECT_TRUE(ev.pm.diff(cy.pm).empty()) << what << ": PM image differs";
    EXPECT_TRUE(ev.exec.diff(cy.exec).empty())
        << what << ": exec image differs";
    EXPECT_EQ(ev.crashed, cy.crashed) << what;

    ASSERT_EQ(ev.events.size(), cy.events.size())
        << what << ": trace event counts differ";
    for (std::size_t i = 0; i < ev.events.size(); ++i) {
        if (!sameEvent(ev.events[i], cy.events[i])) {
            ADD_FAILURE() << what << ": trace event " << i << " differs "
                          << "(tick " << ev.events[i].tick << " vs "
                          << cy.events[i].tick << ")";
            break;
        }
    }

    EXPECT_EQ(ev.crash.faultsArmed, cy.crash.faultsArmed) << what;
    EXPECT_EQ(ev.crash.corruptBarrier, cy.crash.corruptBarrier) << what;
    EXPECT_EQ(ev.crash.truncationHazard, cy.crash.truncationHazard) << what;
    EXPECT_EQ(ev.crash.wpqDamaged, cy.crash.wpqDamaged) << what;
    EXPECT_EQ(ev.crash.poisonedWords, cy.crash.poisonedWords) << what;
    EXPECT_EQ(ev.crash.silentFlips, cy.crash.silentFlips) << what;
    EXPECT_EQ(ev.crash.stallsInjected, cy.crash.stallsInjected) << what;
    EXPECT_EQ(ev.crash.bcastRetries, cy.crash.bcastRetries) << what;
    EXPECT_EQ(ev.crash.bcastLostAtCrash, cy.crash.bcastLostAtCrash) << what;
}

/** Config + compiled program for a paper app under @p scheme. */
struct Prepared
{
    core::SystemConfig cfg;
    compiler::CompiledProgram prog;
    unsigned threads;
    std::vector<Addr> lockAddrs;
};

Prepared
prepare(const std::string &app, core::Scheme scheme)
{
    const auto &profile = workloads::profileByName(app);
    auto w = workloads::generate(profile);
    auto lock_addrs = w.lockAddrs;
    harness::RunSpec spec;
    spec.workload = app;
    spec.scheme = scheme;
    Prepared p{harness::makeConfig(profile, spec),
               harness::prepareProgram(std::move(w), spec),
               profile.threads,
               lock_addrs};
    return p;
}

/** Store-dense scratch profile so the oversubscription test controls
 *  threads/cores directly (6 threads on 2 cores → multi-queued path). */
workloads::WorkloadProfile
scratchProfile(unsigned threads)
{
    workloads::WorkloadProfile p;
    p.name = "engine-scratch";
    p.suite = "TEST";
    p.threads = threads;
    p.footprintBytes = 64 * 1024;
    p.hotBytes = 16 * 1024;
    p.locality = 0.6;
    p.branchMissRate = 0.01;
    workloads::PhaseSpec ph;
    ph.pattern = workloads::PhaseSpec::Pattern::Random;
    ph.loads = 2;
    ph.stores = 2;
    ph.alus = 3;
    ph.trip = 96;
    ph.reps = 3;
    ph.lockedRmw = threads > 1;
    p.phases.push_back(ph);
    return p;
}

} // namespace

// ---- Clean runs ------------------------------------------------------------

TEST(Engine, BuiltinWorkloadsEverySchemeMatch)
{
    setLogQuiet(true);
    for (core::Scheme s :
         {core::Scheme::Baseline, core::Scheme::PspIdeal,
          core::Scheme::LightWsp, core::Scheme::NaiveSfence,
          core::Scheme::Ppa, core::Scheme::Capri, core::Scheme::Cwsp}) {
        auto p = prepare("is", s);
        auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
        auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle);
        expectRunsEq(ev, cy, std::string("is/") + core::schemeName(s));
    }
    for (core::Scheme s : {core::Scheme::LightWsp, core::Scheme::Capri}) {
        auto p = prepare("xz", s);
        auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
        auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle);
        expectRunsEq(ev, cy, std::string("xz/") + core::schemeName(s));
    }
}

TEST(Engine, OversubscribedSchedulingMatches)
{
    setLogQuiet(true);
    auto profile = scratchProfile(6);
    auto w = workloads::generate(profile);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 2;  // 6 threads on 2 cores: context-switch timing
    cfg.applySchemeDefaults();
    auto ev = execute(cfg, prog, 6, SimEngine::Event);
    auto cy = execute(cfg, prog, 6, SimEngine::Cycle);
    expectRunsEq(ev, cy, "6 threads on 2 cores");
}

TEST(Engine, TraceEventsMatch)
{
    setLogQuiet(true);
    auto p = prepare("is", core::Scheme::LightWsp);
    p.cfg.traceEnabled = true;
    auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
    auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle);
    EXPECT_FALSE(ev.events.empty());
    expectRunsEq(ev, cy, "is/lightwsp traced");
}

// ---- Fuzzer-generated programs ---------------------------------------------

TEST(Engine, SeededFuzzWorkloadsMatch)
{
    setLogQuiet(true);
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        auto fp = fuzz::randomWorkloadProgram(seed, /*shrink=*/0);
        compiler::LightWspCompiler comp;
        auto prog = comp.compile(std::move(fp.module));
        core::SystemConfig cfg;
        cfg.scheme = core::Scheme::LightWsp;
        cfg.applySchemeDefaults();
        auto ev = execute(cfg, prog, fp.threads, SimEngine::Event);
        auto cy = execute(cfg, prog, fp.threads, SimEngine::Cycle);
        expectRunsEq(ev, cy, "fuzz-workload seed " + std::to_string(seed));
    }
}

TEST(Engine, SeededFuzzIrProgramsMatch)
{
    setLogQuiet(true);
    for (std::uint64_t seed : {5ull, 17ull}) {
        auto fp = fuzz::randomIrProgram(seed, /*shrink=*/0);
        compiler::LightWspCompiler comp;
        auto prog = comp.compile(std::move(fp.module));
        core::SystemConfig cfg;
        cfg.scheme = core::Scheme::LightWsp;
        cfg.applySchemeDefaults();
        auto ev = execute(cfg, prog, fp.threads, SimEngine::Event);
        auto cy = execute(cfg, prog, fp.threads, SimEngine::Cycle);
        expectRunsEq(ev, cy, "fuzz-ir seed " + std::to_string(seed));
    }
}

// ---- Crash drains and fault injection --------------------------------------

TEST(Engine, CrashDrainMatches)
{
    setLogQuiet(true);
    auto p = prepare("is", core::Scheme::LightWsp);
    auto golden = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
    ASSERT_TRUE(golden.result.completed);
    Tick fail_at = golden.result.cycles / 3;

    auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event,
                      fail_at);
    auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle,
                      fail_at);
    ASSERT_TRUE(ev.crashed);
    expectRunsEq(ev, cy, "is crash at 1/3");

    // Identical post-crash PM images must recover identically.
    auto rec = core::System::recoverChecked(p.cfg, p.prog, p.threads,
                                            ev.pm, p.lockAddrs);
    ASSERT_EQ(rec.outcome, core::RecoveryOutcome::Recovered) << rec.detail;
    auto rr = rec.sys->run();
    EXPECT_TRUE(rr.completed);
}

TEST(Engine, DoubleFailureDuringDrainMatches)
{
    setLogQuiet(true);
    auto p = prepare("is", core::Scheme::LightWsp);
    auto golden = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle);
    ASSERT_TRUE(golden.result.completed);
    Tick fail_at = golden.result.cycles / 2;

    auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event,
                      fail_at, /*drain_iters=*/2);
    auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle,
                      fail_at, /*drain_iters=*/2);
    ASSERT_TRUE(ev.crashed);
    expectRunsEq(ev, cy, "is double failure at 1/2");
}

TEST(Engine, FaultInjectionMatches)
{
    setLogQuiet(true);
    auto p = prepare("is", core::Scheme::LightWsp);
    auto golden = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
    ASSERT_TRUE(golden.result.completed);
    Tick fail_at = golden.result.cycles / 3;

    // Broadcast loss/delay exercise the NoC retry timers (the fault
    // paths with their own re-arm points); WPQ damage and PM poison
    // exercise the crash-time injection hooks.
    core::SystemConfig cfg = p.cfg;
    cfg.faults.enabled = true;
    cfg.faults.hardenedCkpt = true;
    cfg.faults.seed = 7;
    cfg.faults.bcastLossPm = 50;
    cfg.faults.bcastDelayPm = 50;
    cfg.faults.wpqBitFlip = true;
    cfg.faults.pmPoisonWords = 2;

    auto ev = execute(cfg, p.prog, p.threads, SimEngine::Event,
                      fail_at);
    auto cy = execute(cfg, p.prog, p.threads, SimEngine::Cycle,
                      fail_at);
    ASSERT_TRUE(ev.crashed);
    EXPECT_TRUE(ev.crash.faultsArmed);
    expectRunsEq(ev, cy, "is faulted crash at 1/3");
}

// ---- Scheduler self-check and harness plumbing -----------------------------

TEST(Engine, VerifyWakeupsCrossCheckPasses)
{
    setLogQuiet(true);
    // verifyWakeups asserts heap-minimum <= linear-rescan at every
    // scheduling decision; a missing rearm() aborts the run.
    auto p = prepare("is", core::Scheme::LightWsp);
    p.cfg.verifyWakeups = true;
    auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
    EXPECT_TRUE(ev.result.completed);

    auto profile = scratchProfile(6);
    auto w = workloads::generate(profile);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 2;
    cfg.verifyWakeups = true;
    cfg.applySchemeDefaults();
    auto sv = execute(cfg, prog, 6, SimEngine::Event);
    EXPECT_TRUE(sv.result.completed);
}

TEST(Engine, RunnerMemoKeysEnginesSeparately)
{
    setLogQuiet(true);
    harness::RunSpec ev, cy;
    ev.workload = cy.workload = "is";
    ev.scheme = cy.scheme = core::Scheme::LightWsp;
    ev.engine = SimEngine::Event;
    cy.engine = SimEngine::Cycle;
    // Distinct memo keys (no cross-engine cache hits masquerading as
    // equivalence), identical results through the Runner path.
    EXPECT_NE(harness::specKey(ev), harness::specKey(cy));
    harness::Runner runner;
    auto oe = runner.run(ev);
    auto oc = runner.run(cy);
    expectResultEq(oe.result, oc.result, "runner is/lightwsp");
    EXPECT_EQ(oe.threads, oc.threads);
}
