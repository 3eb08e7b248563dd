/**
 * @file
 * The parallel sweep engine's two contracts:
 *
 *  1. "parallel == serial, bit for bit": a SweepExecutor at any job
 *     count returns the same RunOutcome per spec (every counter, not
 *     just cycles) as a jobs=1 executor over a fresh Runner, and
 *     forEach keeps every point's record at its index.
 *  2. Quiescence fast-forward is invisible: a System run with
 *     fastForwardEnabled=false matches one with it enabled on every
 *     statistic, across schemes, warmup, and oversubscribed threads
 *     (where context-switch timing caps the jump).
 *
 * Plus the Runner memo: repeated runs of one spec hand back the cached
 * outcome, SweepExecutor::slowdowns agrees with the scalar
 * slowdownVsBaseline path, and telemetry counts each simulation once.
 * And prepareRun as the one builder of every program source: pds/serve
 * spec strings get the pds layer's own config and binary, profiles keep
 * their lock words, PreparedRun::diffAppState covers exactly the
 * application state, and anything else is a clean error.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "core/system.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
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

void
expectOutcomeEq(const harness::RunOutcome &a, const harness::RunOutcome &b,
                const std::string &what)
{
    expectResultEq(a.result, b.result, what);
    EXPECT_EQ(a.threads, b.threads) << what;
    EXPECT_EQ(a.compileStats.outputInsts, b.compileStats.outputInsts)
        << what;
    EXPECT_EQ(a.compileStats.boundaries, b.compileStats.boundaries) << what;
    EXPECT_EQ(a.compileStats.checkpointStores,
              b.compileStats.checkpointStores)
        << what;
}

/** The mixed spec list both executors sweep: several schemes and
 *  sensitivity overrides over two fast paper apps. */
std::vector<harness::RunSpec>
mixedSpecs()
{
    std::vector<harness::RunSpec> specs;
    for (const char *app : {"is", "xz"}) {
        for (core::Scheme s : {core::Scheme::LightWsp, core::Scheme::Capri,
                               core::Scheme::Ppa}) {
            harness::RunSpec spec;
            spec.workload = app;
            spec.scheme = s;
            specs.push_back(spec);
        }
        harness::RunSpec wpq;
        wpq.workload = app;
        wpq.scheme = core::Scheme::LightWsp;
        wpq.wpqEntries = 16;
        specs.push_back(wpq);
    }
    return specs;
}

/** Store-dense scratch profile (not in the paper registry) so the
 *  fast-forward tests control threads/cores/warmup directly. */
workloads::WorkloadProfile
scratchProfile(unsigned threads)
{
    workloads::WorkloadProfile p;
    p.name = "sweep-scratch";
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

core::RunResult
runDirect(const workloads::WorkloadProfile &profile, core::Scheme scheme,
          unsigned threads, unsigned cores, bool fast_forward,
          std::uint64_t warmup_insts)
{
    auto w = workloads::generate(profile);
    harness::RunSpec spec;
    spec.workload = profile.name;
    spec.scheme = scheme;
    core::SystemConfig cfg = harness::makeConfig(profile, spec);
    cfg.numCores = cores;
    // Pin the legacy engine: the event scheduler ignores
    // fastForwardEnabled (it supersedes it), so the ff-on/ff-off A/B
    // below would degenerate to event-vs-event and assert nothing.
    cfg.engine = SimEngine::Cycle;
    cfg.fastForwardEnabled = fast_forward;
    cfg.warmupInsts = warmup_insts;
    cfg.applySchemeDefaults();
    auto prog = harness::prepareProgram(std::move(w), spec);
    core::System sys(cfg, prog, threads);
    return sys.run();
}

} // namespace

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    setLogQuiet(true);
    auto specs = mixedSpecs();

    harness::Runner serial_runner;
    harness::SweepExecutor serial(1);
    auto serial_out = serial.runAll(serial_runner, specs);

    harness::Runner parallel_runner;
    harness::SweepExecutor parallel(4);
    auto parallel_out = parallel.runAll(parallel_runner, specs);

    ASSERT_EQ(serial_out.size(), specs.size());
    ASSERT_EQ(parallel_out.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectOutcomeEq(serial_out[i], parallel_out[i],
                        "spec " + harness::specKey(specs[i]));

    EXPECT_EQ(serial.totalStats().simulatedCycles,
              parallel.totalStats().simulatedCycles);
    EXPECT_EQ(serial.totalStats().points, parallel.totalStats().points);
}

TEST(Sweep, SlowdownsMatchScalarPath)
{
    setLogQuiet(true);
    auto specs = mixedSpecs();

    harness::Runner sweep_runner;
    harness::SweepExecutor exec(3);
    auto slow = exec.slowdowns(sweep_runner, specs);

    harness::Runner scalar_runner;
    ASSERT_EQ(slow.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_DOUBLE_EQ(slow[i],
                         scalar_runner.slowdownVsBaseline(specs[i]))
            << harness::specKey(specs[i]);
    }
}

TEST(Sweep, MemoReturnsIdenticalOutcome)
{
    setLogQuiet(true);
    harness::RunSpec spec;
    spec.workload = "is";
    spec.scheme = core::Scheme::LightWsp;

    harness::Runner runner;
    auto first = runner.run(spec);

    // Same key whether the defaults are spelled out or left unset.
    harness::RunSpec explicit_spec = spec;
    explicit_spec.wpqEntries = 64;
    explicit_spec.storeThreshold = 32;
    explicit_spec.persistPathGBps = 4.0;
    EXPECT_EQ(harness::specKey(spec), harness::specKey(explicit_spec));

    auto again = runner.run(explicit_spec);
    expectOutcomeEq(first, again, "memoized rerun");
}

TEST(Sweep, FastForwardIsInvisibleAcrossSchemes)
{
    setLogQuiet(true);
    auto profile = scratchProfile(1);
    for (core::Scheme s :
         {core::Scheme::Baseline, core::Scheme::Capri,
          core::Scheme::LightWsp}) {
        auto off = runDirect(profile, s, 1, 1, false, 0);
        auto on = runDirect(profile, s, 1, 1, true, 0);
        ASSERT_TRUE(off.completed);
        expectResultEq(off, on,
                       std::string("scheme ") + core::schemeName(s));
    }
}

TEST(Sweep, FastForwardIsInvisibleWithWarmup)
{
    setLogQuiet(true);
    auto profile = scratchProfile(4);
    auto off = runDirect(profile, core::Scheme::LightWsp, 4, 4, false,
                         /*warmup_insts=*/2000);
    auto on = runDirect(profile, core::Scheme::LightWsp, 4, 4, true,
                        /*warmup_insts=*/2000);
    ASSERT_TRUE(off.completed);
    expectResultEq(off, on, "4t with warmup");
}

TEST(Sweep, FastForwardIsInvisibleWhenOversubscribed)
{
    setLogQuiet(true);
    // 6 threads on 2 cores: the scheduler's quantum decides when each
    // core switches threads, so the fast-forward jump must stop at every
    // schedule check to keep context switches on identical cycles.
    auto profile = scratchProfile(6);
    auto off = runDirect(profile, core::Scheme::LightWsp, 6, 2, false, 0);
    auto on = runDirect(profile, core::Scheme::LightWsp, 6, 2, true, 0);
    ASSERT_TRUE(off.completed);
    expectResultEq(off, on, "6 threads on 2 cores");
}

TEST(Sweep, ParallelForCoversAllIndicesAndRethrows)
{
    std::vector<int> hits(64, 0);
    harness::parallelFor(4, hits.size(),
                         [&](std::size_t i) { hits[i] = 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;

    EXPECT_THROW(
        harness::parallelFor(3, 8,
                             [&](std::size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("boom");
                             }),
        std::runtime_error);
}

// The generic entry point: every point lands in its index's record,
// identically at any job count, and the telemetry sums what a plain
// serial loop over the same points would.
TEST(Sweep, ForEachKeepsIndexOrderAtAnyJobCount)
{
    setLogQuiet(true);
    const core::Scheme schemes[] = {core::Scheme::Baseline,
                                    core::Scheme::LightWsp,
                                    core::Scheme::Capri};
    auto point = [&](std::size_t i) {
        auto profile = scratchProfile(1 + static_cast<unsigned>(i % 2));
        harness::RunRecord rec;
        rec.spec.workload = "point-" + std::to_string(i);
        rec.spec.scheme = schemes[i % 3];
        auto cfg = harness::makeConfig(profile, rec.spec);
        auto prog = harness::prepareProgram(workloads::generate(profile),
                                            rec.spec);
        core::System sys(cfg, prog, profile.threads);
        rec.outcome.result = sys.run();
        rec.outcome.threads = profile.threads;
        rec.simulatedCycles = rec.outcome.result.cycles;
        return rec;
    };
    constexpr std::size_t n = 6;

    std::uint64_t serialCycles = 0;
    std::vector<core::RunResult> serial;
    for (std::size_t i = 0; i < n; ++i) {
        serial.push_back(point(i).outcome.result);
        serialCycles += serial.back().cycles;
    }

    for (unsigned jobs : {1u, 4u}) {
        harness::SweepExecutor exec(jobs);
        exec.forEach(n, point);
        const auto &recs = exec.runRecords();
        ASSERT_EQ(recs.size(), n) << "jobs " << jobs;
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(recs[i].spec.workload, "point-" + std::to_string(i));
            expectResultEq(recs[i].outcome.result, serial[i],
                           "jobs " + std::to_string(jobs) + " point " +
                               std::to_string(i));
        }
        EXPECT_EQ(exec.totalStats().jobs, jobs);
        EXPECT_EQ(exec.totalStats().points, n);
        EXPECT_EQ(exec.totalStats().simulatedCycles, serialCycles);
    }
}

// Run reports carry records whose workload names are not paper
// profiles (fig19-21's pds/serve spec strings, fig22's storm lifetimes,
// fig23's fabric rows): writing one must not abort on the profile lookup
// behind the record's key, and the v1.3 additions — the scheme label
// (pmtx: a pds program on the naive-sfence machine), compile stats and
// the flat metrics object — must reach the text.
TEST(Sweep, RunReportAcceptsNonProfileWorkloads)
{
    harness::RunRecord rec;
    rec.spec.workload = "hash,sz=1,ops=192,mix=0,pseed=7";
    rec.spec.scheme = core::Scheme::NaiveSfence;
    rec.outcome.threads = 1;
    rec.outcome.result.completed = true;
    rec.outcome.compileStats.inputInsts = 192;
    rec.outcome.compileStats.boundaries = 21;
    rec.metrics = {{"golden_cycles", 14670}, {"ia=500/b=2/p99", 16150.5}};
    harness::RunRecord plain;
    plain.spec.workload = "rb";
    harness::SweepStats stats;
    std::string path = testing::TempDir() + "nonprofile_report.json";
    harness::writeRunReports(path, "test_sweep", {rec, plain}, stats);

    std::ifstream is(path);
    std::stringstream json;
    json << is.rdbuf();
    for (const std::string &want :
         {std::string("\"schema\":\"lwsp-run-report-v1.3\""),
          "\"workload\":\"" + rec.spec.workload + "\"",
          std::string("\"scheme\":\"naive-sfence\""),
          std::string("\"input_insts\":192"),
          std::string("\"boundaries\":21"),
          std::string("\"scheme_label\":\"pmtx\",\"metrics\":{"
                      "\"golden_cycles\":14670,"
                      "\"ia=500/b=2/p99\":16150.5}}"),
          // Profile records carry their core scheme's name and no
          // metrics object.
          std::string("\"scheme_label\":\"lightwsp\"}")}) {
        EXPECT_NE(json.str().find(want), std::string::npos)
            << want << "\n" << json.str();
    }
}

// Sweep telemetry counts simulations, not requests: slowdowns over 2
// profiles x 3 schemes asks for 12 runs, but the memo simulates the 2
// shared baselines and the 6 scheme points once each, and a repeated
// sweep is all memo hits.
TEST(Sweep, TelemetryCountsEachSimulationOnce)
{
    setLogQuiet(true);
    std::vector<harness::RunSpec> specs;
    for (const char *app : {"is", "xz"}) {
        for (core::Scheme s : {core::Scheme::LightWsp, core::Scheme::Capri,
                               core::Scheme::Ppa}) {
            harness::RunSpec spec;
            spec.workload = app;
            spec.scheme = s;
            specs.push_back(spec);
        }
    }

    harness::Runner runner;
    harness::SweepExecutor exec(2);
    exec.slowdowns(runner, specs);
    const auto &recs = exec.runRecords();
    ASSERT_EQ(recs.size(), 8u);
    std::uint64_t cycles = 0;
    for (const auto &rec : recs)
        cycles += rec.outcome.result.cycles;
    EXPECT_EQ(exec.totalStats().points, 8u);
    EXPECT_EQ(exec.totalStats().simulatedCycles, cycles);

    exec.runAll(runner, specs);
    EXPECT_EQ(exec.totalStats().points, 8u);
    EXPECT_EQ(exec.totalStats().simulatedCycles, cycles);
}

namespace {

/** pds::PdsScheme for each of harness::pdsSchemes, in order. */
constexpr pds::PdsScheme kPdsSchemes[] = {
    pds::PdsScheme::LightWsp, pds::PdsScheme::Capri, pds::PdsScheme::Ppa,
    pds::PdsScheme::Cwsp, pds::PdsScheme::Pmtx};

pds::PdsSpec
tinyPds()
{
    pds::PdsSpec ps;
    ps.kind = pds::Kind::Hash;
    ps.sizeClass = 0;
    ps.numOps = 24;
    ps.seed = 5;
    return ps;
}

serve::ServeSpec
tinyServe()
{
    serve::ServeSpec ss;
    ss.sizeClass = 0;
    ss.numRequests = 16;
    ss.seed = 3;
    return ss;
}

void
expectConfigEq(const core::SystemConfig &a, const core::SystemConfig &b,
               const std::string &what)
{
    EXPECT_EQ(a.scheme, b.scheme) << what;
    EXPECT_EQ(a.engine, b.engine) << what;
    EXPECT_EQ(a.numCores, b.numCores) << what;
    EXPECT_EQ(a.numMcs, b.numMcs) << what;
    EXPECT_EQ(a.maxCycles, b.maxCycles) << what;
    EXPECT_EQ(a.warmupInsts, b.warmupInsts) << what;
    EXPECT_EQ(a.victimPolicy, b.victimPolicy) << what;
    EXPECT_EQ(a.cwspDrainFactor, b.cwspDrainFactor) << what;
    EXPECT_EQ(a.topology.toString(), b.topology.toString()) << what;
    EXPECT_EQ(a.mc.gatingEnabled, b.mc.gatingEnabled) << what;
    EXPECT_EQ(a.mc.wpqEntries, b.mc.wpqEntries) << what;
    EXPECT_EQ(a.mc.drainInterval, b.mc.drainInterval) << what;
    EXPECT_EQ(a.mc.dramCacheEnabled, b.mc.dramCacheEnabled) << what;
    EXPECT_EQ(a.core.boundaryPolicy, b.core.boundaryPolicy) << what;
    EXPECT_EQ(a.core.persistPathEnabled, b.core.persistPathEnabled) << what;
    EXPECT_EQ(a.core.febEntries, b.core.febEntries) << what;
    EXPECT_EQ(a.core.pathCyclesPerEntry, b.core.pathCyclesPerEntry) << what;
}

void
expectCompileEq(const compiler::CompileStats &a,
                const compiler::CompileStats &b, const std::string &what)
{
    EXPECT_EQ(a.inputInsts, b.inputInsts) << what;
    EXPECT_EQ(a.outputInsts, b.outputInsts) << what;
    EXPECT_EQ(a.boundaries, b.boundaries) << what;
    EXPECT_EQ(a.checkpointStores, b.checkpointStores) << what;
    EXPECT_EQ(a.prunedCheckpoints, b.prunedCheckpoints) << what;
}

} // namespace

// prepareRun is the one builder of pds/serve points: under every pds
// scheme and both run modes it hands back what the pds layer's own
// config/binary builders give, plus the served counter and the tape.
TEST(Sweep, PrepareRunBuildsPdsAndServeSources)
{
    const pds::PdsSpec ps = tinyPds();
    const serve::ServeWorkload wl = serve::buildWorkload(tinyServe());
    for (std::size_t i = 0; i < std::size(kPdsSchemes); ++i) {
        for (auto mode : {pds::PdsRunMode::Perf, pds::PdsRunMode::Recovery}) {
            harness::RunSpec spec;
            spec.scheme = harness::pdsSchemes[i];
            spec.mode = mode;
            std::string what = std::string(pds::pdsSchemeName(kPdsSchemes[i])) +
                               (mode == pds::PdsRunMode::Perf ? "/perf"
                                                              : "/recovery");
            auto direct = pds::makePdsConfig(kPdsSchemes[i], mode);

            spec.workload = ps.toString();
            auto run = harness::prepareRun(spec);
            expectConfigEq(run.cfg, direct, "pds " + what);
            expectCompileEq(
                run.prog.stats,
                pds::preparePdsProgram(ps, kPdsSchemes[i], mode).stats,
                "pds " + what);
            EXPECT_EQ(run.served, pds::PdsModel(ps).params().served);
            bool pmtx = kPdsSchemes[i] == pds::PdsScheme::Pmtx;
            EXPECT_EQ(run.footprint,
                      pds::buildPdsProgram(ps, pmtx).params.footprintBytes)
                << "pds " << what;
            EXPECT_FALSE(run.serve);

            spec.workload = wl.spec.toString();
            run = harness::prepareRun(spec);
            expectConfigEq(run.cfg, direct, "serve " + what);
            expectCompileEq(run.prog.stats,
                            pds::preparePdsProgram(wl.pdsSpec, wl.ops,
                                                   kPdsSchemes[i], mode)
                                .stats,
                            "serve " + what);
            EXPECT_EQ(run.served,
                      pds::PdsModel(wl.pdsSpec, wl.ops).params().served);
            ASSERT_TRUE(run.serve);
            EXPECT_EQ(run.serve->ops.size(), wl.ops.size());
        }
    }

    harness::RunSpec base;
    base.workload = ps.toString();
    base.scheme = core::Scheme::Baseline;
    expectConfigEq(harness::prepareRun(base).cfg,
                   pds::makePdsBaselineConfig(), "pds baseline");

    harness::setDefaultSimEngine(SimEngine::Cycle);
    auto cycle = harness::prepareRun(base);
    harness::setDefaultSimEngine(SimEngine::Event);
    EXPECT_EQ(cycle.cfg.engine, SimEngine::Cycle);
}

// Recovery mode compiles Capri, so its threshold is part of the key;
// Perf-mode Capri runs the original binary and folds it away.
TEST(Sweep, CapriRecoveryThresholdsKeyApart)
{
    harness::RunSpec a;
    a.workload = tinyPds().toString();
    a.scheme = core::Scheme::Capri;
    a.mode = pds::PdsRunMode::Recovery;
    a.storeThreshold = 8;
    harness::RunSpec b = a;
    b.storeThreshold = 16;
    EXPECT_NE(harness::specKey(a), harness::specKey(b));

    a.mode = b.mode = pds::PdsRunMode::Perf;
    EXPECT_EQ(harness::specKey(a), harness::specKey(b));
}

// Two schemes over one pds program share its baseline: the memo
// simulates it once, and the pds points pass the Runner's semantic check.
TEST(Sweep, PdsBaselineSimulatedOnce)
{
    setLogQuiet(true);
    std::vector<harness::RunSpec> specs(2);
    specs[0].workload = specs[1].workload = tinyPds().toString();
    specs[0].scheme = core::Scheme::LightWsp;
    specs[1].scheme = core::Scheme::NaiveSfence;

    harness::Runner runner;
    harness::SweepExecutor exec(2);
    auto slow = exec.slowdowns(runner, specs);
    EXPECT_EQ(exec.totalStats().points, 3u);
    ASSERT_EQ(exec.runRecords().size(), 3u);
    EXPECT_EQ(exec.runRecords()[0].spec.scheme, core::Scheme::Baseline);
    for (double x : slow)
        EXPECT_GT(x, 1.0);
}

// A workload that is no program source, or a scheme a pds program
// cannot run under, is a clean error — never an abort.
TEST(Sweep, BadWorkloadIsACleanError)
{
    harness::RunSpec spec;
    // Numeric fields are plain decimal: a renamed record such as a
    // storm lifetime ("<serve spec>+storm=...") is no program source.
    for (const char *bad :
         {"no-such-app", "", "hash,sz=9", "varnish,bogus", "log,ops",
          "hash,ops=12x", "varnish,sz=0,reqs=16,sseed=3+storm=x1"}) {
        spec.workload = bad;
        EXPECT_THROW(harness::prepareRun(spec), std::invalid_argument)
            << bad;
        EXPECT_FALSE(harness::specKey(spec).empty()) << bad;
    }

    spec.workload = tinyPds().toString();
    spec.scheme = core::Scheme::PspIdeal;
    EXPECT_THROW(harness::prepareRun(spec), std::invalid_argument);
    spec.scheme = core::Scheme::LightWsp;
    spec.threads = 2;
    EXPECT_THROW(harness::prepareRun(spec), std::invalid_argument);

    harness::Runner runner;
    spec.workload = "no-such-app";
    spec.threads.reset();
    EXPECT_THROW(runner.run(spec), std::invalid_argument);
}

// A profile's PreparedRun keeps what crash checkers recover with: the
// lock words recovery rebuilds ownership from and the per-thread
// partition the golden diff covers.
TEST(Sweep, PrepareRunKeepsProfileLockWords)
{
    harness::RunSpec spec;
    spec.workload = "intruder";
    auto run = harness::prepareRun(spec);
    auto w = workloads::generateByName("intruder");
    ASSERT_FALSE(w.lockAddrs.empty());
    EXPECT_EQ(run.lockAddrs, w.lockAddrs);
    EXPECT_EQ(run.threads, w.profile.threads);
    EXPECT_EQ(run.footprint, w.profile.footprintBytes);
}

// diffAppState covers every thread's heap partition and the shared
// page, and nothing past the last partition.
TEST(Sweep, DiffAppStateCoversPartitionsAndSharedPage)
{
    harness::PreparedRun run;
    run.threads = 2;
    run.footprint = 4096;
    const Addr heap = workloads::Workload::heapBase;
    const Addr shared = workloads::Workload::sharedBase;
    mem::MemImage golden;
    golden.write(heap, 1);
    golden.write(shared, 2);

    mem::MemImage got = golden;
    EXPECT_EQ(run.diffAppState(got, golden, "x"), "");

    got.write(heap + 2 * 4096, 7);  // past the last partition
    got.write(shared + 4096, 7);    // past the shared page
    EXPECT_EQ(run.diffAppState(got, golden, "x"), "");

    mem::MemImage lastThread = got;
    lastThread.write(heap + 2 * 4096 - 8, 7);
    std::ostringstream want;
    want << "recovered: heap differs from golden at 0x" << std::hex
         << heap + 2 * 4096 - 8 << " (1 words)";
    EXPECT_EQ(run.diffAppState(lastThread, golden, "recovered"),
              want.str());

    mem::MemImage sharedPage = got;
    sharedPage.write(shared + 4096 - 8, 7);
    want.str("");
    want << "victim: shared page differs from golden at 0x" << std::hex
         << shared + 4096 - 8;
    EXPECT_EQ(run.diffAppState(sharedPage, golden, "victim"), want.str());
}
