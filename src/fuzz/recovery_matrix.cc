#include "fuzz/recovery_matrix.hh"

#include <memory>
#include <sstream>
#include <utility>

#include "compiler/compiler.hh"
#include "core/storm_walk.hh"
#include "core/system.hh"
#include "fuzz/random_workload.hh"
#include "workloads/generator.hh"

namespace lwsp {
namespace fuzz {

namespace {

/** Everything one case needs to run: binary, machine, oracles. */
struct MatrixBuild
{
    harness::PreparedRun run;  ///< pds/serve rows carry their oracle
    std::vector<Addr> lockAddrs;
    Addr heapLo = 0, heapHi = 0;  ///< builtin golden-diff heap range
};

MatrixBuild
build(const MatrixCase &c, const MatrixOptions &opt)
{
    MatrixBuild b;
    if (c.builtin) {
        // A multi-threaded workload program under plain gated LightWSP —
        // the only row with locks and inter-thread interleaving. Shrink
        // level 1 keeps the recovered run short enough for per-cycle
        // crashes.
        FuzzProgram src = randomWorkloadProgram(c.wlSeed, /*shrink=*/1);
        core::SystemConfig &cfg = b.run.cfg;
        cfg.scheme = core::Scheme::LightWsp;
        cfg.numMcs = 2;
        cfg.mc.wpqEntries = 16;
        cfg.numCores = std::min(4u, src.threads);
        cfg.maxCycles = 30'000'000;
        cfg.applySchemeDefaults();
        cfg.engine = opt.engine;
        compiler::CompilerConfig ccfg;
        ccfg.storeThreshold = 8;
        compiler::LightWspCompiler comp(ccfg);
        b.run.prog = comp.compile(std::move(src.module));
        b.run.threads = src.threads;
        b.lockAddrs = src.lockAddrs;
        b.heapLo = workloads::Workload::heapBase;
        b.heapHi = b.heapLo +
                   static_cast<Addr>(src.threads) * src.footprintBytes;
        return b;
    }

    harness::RunSpec spec = c.spec;
    spec.engine = opt.engine;
    b.run = harness::prepareRun(spec);
    // Tight hang backstop: matrix cases are tiny (tens of ops), so a run
    // that needs anywhere near this many cycles is live-locked.
    b.run.cfg.maxCycles = 30'000'000;
    return b;
}

} // namespace

std::vector<MatrixCase>
recoveryMatrixCases()
{
    std::vector<MatrixCase> cases;
    auto add = [&cases](const std::string &workload, core::Scheme s,
                        const std::string &row) -> MatrixCase & {
        MatrixCase &c = cases.emplace_back();
        c.spec.workload = workload;
        c.spec.scheme = s;
        c.spec.mode = pds::PdsRunMode::Recovery;
        c.name = row + "/" + harness::schemeLabel(c.spec);
        return c;
    };

    pds::PdsSpec ps;
    ps.sizeClass = 0;
    ps.numOps = 24;
    ps.mix = 0;
    ps.seed = 5;
    // Small transactions put several commit edges and undo replays
    // inside the crash window (pmtx rows only).
    ps.opsPerTx = 2;
    for (auto k : {pds::Kind::Log, pds::Kind::Hash, pds::Kind::Alloc}) {
        ps.kind = k;
        for (auto s : harness::pdsSchemes)
            add(ps.toString(), s, pds::kindName(k));
    }
    serve::ServeSpec ss;
    ss.profile = serve::Profile::Varnish;
    ss.sizeClass = 0;
    ss.numRequests = 16;
    ss.seed = 3;
    ss.opsPerTx = 2;
    for (auto s : harness::pdsSchemes)
        add(ss.toString(), s, "serve");

    MatrixCase &builtin = cases.emplace_back();
    builtin.builtin = true;
    builtin.wlSeed = 2;
    builtin.name = "builtin/lightwsp";

    // Scale-out rows: the same hash-table sweep on a sharded 16-MC
    // machine, once on the flat fabric and once on the radix-4
    // aggregation tree — recovery re-entrancy must hold when boundary
    // broadcasts descend a hierarchy and ACKs aggregate at interior
    // nodes (the 64-MC broadcast-mask overflow regression family).
    ps.kind = pds::Kind::Hash;
    for (bool tree : {false, true}) {
        MatrixCase &sc =
            add(ps.toString(), core::Scheme::LightWsp, "hash16");
        sc.spec.numMcs = 16;
        if (tree) {
            noc::TopologyConfig topo;
            topo.kind = noc::TopologyConfig::Kind::Tree;
            sc.spec.topology = topo;
        }
        sc.name += tree ? "-tree4" : "-flat";
    }
    return cases;
}

MatrixCaseResult
runRecoveryMatrixCase(const MatrixCase &c, const MatrixOptions &opt)
{
    MatrixCaseResult res;
    res.name = c.name;
    auto fail = [&res](std::string why) {
        res.passed = false;
        res.failure = std::move(why) + " [" + res.name + "]";
        return res;
    };

    MatrixBuild b = build(c, opt);

    auto finalCheck = [&b](const core::System &sys,
                           const core::System &golden,
                           const char *what) -> std::string {
        if (b.run.pds) {
            auto msg = b.run.checkSemantics(sys.execImage());
            if (!msg.empty())
                return std::string(what) + " " + msg;
            return {};
        }
        auto heap =
            sys.pmImage().diffInRange(golden.pmImage(), b.heapLo,
                                      b.heapHi);
        if (!heap.empty()) {
            std::ostringstream os;
            os << what << ": heap differs from golden at 0x" << std::hex
               << heap[0] << " (" << std::dec << heap.size()
               << " words)";
            return os.str();
        }
        Addr sh = workloads::Workload::sharedBase;
        auto shared =
            sys.pmImage().diffInRange(golden.pmImage(), sh, sh + 4096);
        if (!shared.empty()) {
            std::ostringstream os;
            os << what << ": shared page differs from golden at 0x"
               << std::hex << shared[0];
            return os.str();
        }
        return {};
    };

    core::System golden(b.run.cfg, b.run.prog, b.run.threads);
    ++res.runsExecuted;
    auto gr = golden.run();
    if (!gr.completed)
        return fail("golden run did not complete");
    res.goldenCycles = gr.cycles;
    if (auto e = finalCheck(golden, golden, "golden"); !e.empty())
        return fail(e);

    core::System victim(b.run.cfg, b.run.prog, b.run.threads);
    ++res.runsExecuted;
    auto vr = victim.runWithPowerFailure(gr.cycles * 6 / 10);
    if (vr.completed)
        return fail("victim completed before the crash point");
    if (!victim.crashed())
        return fail("victim neither completed nor crashed");

    // One storm lifetime from the shared victim: recover, run the
    // schedule (empty, or one failure t cycles into the recovered run),
    // run out. @return "" or the failure; the lifetime lands in @p out.
    auto walk = [&](const fault::FailureSchedule &sched,
                    core::StormWalk &out) -> std::string {
        out = core::recoverThroughStorm(victim, b.run.cfg, b.run.prog,
                                        b.run.threads, b.lockAddrs, sched,
                                        0);
        res.runsExecuted +=
            static_cast<unsigned>(out.segmentCycles.size());
        res.recoveredExact += out.recoveredExact;
        res.recoveredDegraded += out.recoveredDegraded;
        if (!out.error.empty())
            return out.error;
        if (out.outcome == core::RecoveryOutcome::DetectedUnrecoverable)
            return "fault-free image classified unrecoverable: " +
                   out.detail;
        if (!out.result.completed)
            return "recovered run did not complete (possible hang)";
        return {};
    };

    // Reference recovered run: its crash-free length R bounds the sweep.
    core::StormWalk ref;
    if (auto e = walk({}, ref); !e.empty())
        return fail(e);
    res.recoveryCycles = ref.result.cycles;
    if (auto e = finalCheck(*ref.sys, golden, "recovered"); !e.empty())
        return fail(e);

    // Crash the recovery run at every stride-th cycle of [0, R).
    Tick step = opt.step ? opt.step : 1;
    for (Tick t = 0; t < res.recoveryCycles; t += step) {
        ++res.pointsTried;
        core::StormWalk w;
        std::string at = " at t=" + std::to_string(t);
        if (auto e = walk({{{fault::FailurePhase::Exec, t}}}, w);
            !e.empty())
            return fail(e + at);
        // Engine fast-forward can land the completion check past t; the
        // run is clean either way.
        const char *what = w.failures > 1 ? "second recovery"
                                          : "recovery(uncrashed)";
        if (auto e = finalCheck(*w.sys, golden, what); !e.empty())
            return fail(e + at);
    }
    return res;
}

} // namespace fuzz
} // namespace lwsp
