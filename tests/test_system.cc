/**
 * @file
 * System-level invariants: address interleaving, scheme configuration,
 * persist-order monotonicity across MCs (trace-hook verified), stale
 * loads, warmup resets, context switching with more threads than cores,
 * and cross-scheme sanity orderings.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hh"
#include "compiler/compiler.hh"
#include "core/system.hh"
#include "harness/runner.hh"
#include "workloads/generator.hh"

using namespace lwsp;
using namespace lwsp::core;

namespace {

workloads::WorkloadProfile
tiny(unsigned threads = 1, bool locked = false)
{
    workloads::WorkloadProfile p;
    p.name = "tiny";
    p.suite = "TEST";
    p.threads = threads;
    p.footprintBytes = 64 * 1024;
    p.hotBytes = 8 * 1024;
    p.locality = 0.7;
    p.branchMissRate = 0.0;
    workloads::PhaseSpec ph;
    ph.loads = 2;
    ph.stores = 2;
    ph.alus = 4;
    ph.trip = 64;
    ph.reps = 2;
    ph.pattern = workloads::PhaseSpec::Pattern::Random;
    ph.lockedRmw = locked;
    p.phases.push_back(ph);
    return p;
}

} // namespace

TEST(System, McInterleavingByCacheline)
{
    setLogQuiet(true);
    auto w = workloads::generate(tiny());
    auto prog = compiler::makeUncompiled(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::Baseline;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 1);
    EXPECT_EQ(sys.mcForAddr(0x0000), 0u);
    EXPECT_EQ(sys.mcForAddr(0x0040), 1u);
    EXPECT_EQ(sys.mcForAddr(0x0080), 0u);
    EXPECT_EQ(sys.mcForAddr(0x0038), 0u);  // same line as 0x0000
}

TEST(System, SchemeDefaultsAreConsistent)
{
    for (Scheme s : {Scheme::Baseline, Scheme::PspIdeal, Scheme::LightWsp,
                     Scheme::NaiveSfence, Scheme::Ppa, Scheme::Capri,
                     Scheme::Cwsp}) {
        SystemConfig cfg;
        cfg.scheme = s;
        cfg.applySchemeDefaults();
        EXPECT_EQ(cfg.core.persistPathEnabled, schemeHasPersistPath(s));
        if (s == Scheme::LightWsp || s == Scheme::NaiveSfence) {
            EXPECT_EQ(cfg.mc.gatingEnabled, s == Scheme::LightWsp);
        }
        if (s == Scheme::PspIdeal) {
            EXPECT_FALSE(cfg.mc.dramCacheEnabled);
        }
        if (s == Scheme::Capri) {
            EXPECT_DOUBLE_EQ(cfg.core.trafficAmplification, 8.0);
        }
    }
}

TEST(System, FlushOrderMonotoneInRegionIdPerMc)
{
    setLogQuiet(true);
    auto w = workloads::generate(tiny(4));
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::LightWsp;
    cfg.numCores = 4;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 4);

    // Normal (non-fallback) flushes must never go backwards in region id
    // on any single MC — the WAW-ordering invariant of §IV-B.
    std::vector<RegionId> last(2, 0);
    bool violated = false;
    for (McId m = 0; m < 2; ++m) {
        sys.mcAt(m).setFlushTraceHook(
            [&, m](int kind, Addr, std::uint64_t, RegionId region) {
                if (kind == 0) {  // normal flush
                    if (region < last[m])
                        violated = true;
                    last[m] = std::max(last[m], region);
                }
            });
    }
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(violated);
    EXPECT_GT(r.wpqFlushedEntries, 0u);
}

TEST(System, StaleLoadsOnlyWithoutSnooping)
{
    setLogQuiet(true);
    auto run_policy = [&](mem::VictimPolicy v) {
        auto w = workloads::generate(tiny(4));
        compiler::LightWspCompiler comp;
        auto prog = comp.compile(std::move(w.module));
        SystemConfig cfg;
        cfg.scheme = Scheme::LightWsp;
        cfg.numCores = 4;
        cfg.applySchemeDefaults();
        cfg.victimPolicy = v;
        System sys(cfg, prog, 4);
        auto r = sys.run();
        EXPECT_TRUE(r.completed);
        return r;
    };
    auto with_snoop = run_policy(mem::VictimPolicy::Full);
    EXPECT_EQ(with_snoop.staleLoads, 0u);
    auto without = run_policy(mem::VictimPolicy::None);
    // Stale loads may or may not occur on this small run, but the
    // snooping configuration must never report any.
    (void)without;
}

TEST(System, WarmupResetsStatistics)
{
    setLogQuiet(true);
    auto mk = [] {
        auto w = workloads::generate(tiny());
        compiler::LightWspCompiler comp;
        return comp.compile(std::move(w.module));
    };
    auto prog_cold = mk();
    SystemConfig cold;
    cold.scheme = Scheme::LightWsp;
    cold.applySchemeDefaults();
    System sys_cold(cold, prog_cold, 1);
    auto r_cold = sys_cold.run();

    auto prog_warm = mk();
    SystemConfig warm = cold;
    warm.warmupInsts = r_cold.instsRetired / 2;
    System sys_warm(warm, prog_warm, 1);
    auto r_warm = sys_warm.run();

    EXPECT_LT(r_warm.instsRetired, r_cold.instsRetired);
    EXPECT_LT(r_warm.cycles, r_cold.cycles);
    EXPECT_TRUE(r_warm.completed);
}

TEST(System, MoreThreadsThanCoresContextSwitch)
{
    setLogQuiet(true);
    auto w = workloads::generate(tiny(8, true));
    auto lock_addrs = w.lockAddrs;
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::LightWsp;
    cfg.numCores = 2;  // 8 threads on 2 cores
    cfg.ctxQuantum = 2000;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 8);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    // All threads finished and every store persisted.
    auto diffs = sys.pmImage().diff(sys.execImage());
    EXPECT_TRUE(diffs.empty());
}

TEST(System, PmNeverAheadOfExecDuringRun)
{
    // Sample mid-run: any value in PM must be one the execution image
    // has already produced for that address (redo semantics: PM holds a
    // prefix, never speculation beyond execution). We check the final
    // states of a staged run instead of every cycle for speed.
    setLogQuiet(true);
    auto w = workloads::generate(tiny());
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::LightWsp;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 1);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(sys.pmImage().diff(sys.execImage()).empty());
}

TEST(System, SlowdownOrderingAcrossSchemes)
{
    setLogQuiet(true);
    harness::Runner runner;
    harness::RunSpec spec;
    spec.workload = "lbm";

    spec.scheme = Scheme::LightWsp;
    double lwsp = runner.slowdownVsBaseline(spec);
    spec.scheme = Scheme::Capri;
    double capri = runner.slowdownVsBaseline(spec);
    spec.scheme = Scheme::NaiveSfence;
    double sfence = runner.slowdownVsBaseline(spec);
    spec.scheme = Scheme::PspIdeal;
    double psp = runner.slowdownVsBaseline(spec);

    // The paper's qualitative ordering for a memory-intensive app.
    EXPECT_GT(lwsp, 1.0);
    EXPECT_LT(lwsp, 1.5);
    EXPECT_GT(capri, lwsp);
    EXPECT_GT(sfence, lwsp);
    EXPECT_GT(psp, 1.5);  // no DRAM cache hurts badly here
}

TEST(System, StatRegistryDumpEmitsEveryComponent)
{
    setLogQuiet(true);
    auto w = workloads::generate(tiny());
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::LightWsp;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 1);
    sys.run();
    stats::Registry reg;
    sys.registerStats(reg);
    std::ostringstream os;
    reg.dump(os);
    std::string s = os.str();
    EXPECT_NE(s.find("core0.instsRetired"), std::string::npos);
    EXPECT_NE(s.find("core0.l1d.hits"), std::string::npos);
    EXPECT_NE(s.find("l2.misses"), std::string::npos);
    EXPECT_NE(s.find("mc0.flushedEntries"), std::string::npos);
    EXPECT_NE(s.find("mc1.flushId"), std::string::npos);
    EXPECT_NE(s.find("noc.boundariesBroadcast"), std::string::npos);
}

TEST(System, WpqSizeSensitivityDirection)
{
    setLogQuiet(true);
    harness::Runner runner;
    harness::RunSpec big;
    big.workload = "rb";
    big.scheme = Scheme::LightWsp;
    big.wpqEntries = 256;
    harness::RunSpec small = big;
    small.wpqEntries = 64;
    // Larger WPQ never hurts (paper Fig. 11).
    EXPECT_LE(runner.slowdownVsBaseline(big),
              runner.slowdownVsBaseline(small) * 1.05);
}
