#include "fuzz/campaign.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "analysis/wsp_checker.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "compiler/compiler.hh"
#include "core/storm_walk.hh"
#include "core/system.hh"
#include "fuzz/random_program.hh"
#include "fuzz/random_workload.hh"
#include "harness/runner.hh"

namespace lwsp {
namespace fuzz {

// ---- Spec strings ----------------------------------------------------------

namespace {

constexpr const char *specPrefix = "lwsp-fuzz:v1:";

const char *
modeToken(CrashMode m)
{
    switch (m) {
      case CrashMode::None: return "campaign";
      case CrashMode::Single: return "single";
      case CrashMode::DoubleRecovery: return "dbl-rec";
      case CrashMode::DoubleDrain: return "dbl-drain";
      case CrashMode::Storm: return "storm";
    }
    return "?";
}

} // namespace

std::string
CaseSpec::toString() const
{
    std::ostringstream os;
    const char *src = source == Source::Workload ? "wl"
                      : source == Source::Ir     ? "ir"
                      : source == Source::Pds    ? "pds"
                                                 : "serve";
    os << specPrefix << src << ":seed=" << seed << ":shrink=" << shrink;
    if (source == Source::Pds)
        os << ":pds=" << pds.toString();
    if (source == Source::Serve)
        os << ":serve=" << serve.toString();
    if (mode != CrashMode::None) {
        os << ":mode=" << modeToken(mode) << ":crash=" << crashAt;
        if (mode == CrashMode::DoubleRecovery)
            os << ":crash2=" << crashAt2;
        if (mode == CrashMode::DoubleDrain)
            os << ":drain=" << drainIters;
    }
    if (!storm.empty())
        os << ":storm=" << storm.toString();
    if (fault)
        os << ":fault=1";
    if (std::string f = faults.toString(); !f.empty())
        os << ":faults=" << f;
    if (mcs != 0)
        os << ":mcs=" << mcs;
    if (topo.isTree())
        os << ":topo=" << topo.toString();
    return os.str();
}

fault::FailureSchedule
CaseSpec::schedule() const
{
    switch (mode) {
      case CrashMode::DoubleRecovery:
        return {{{fault::FailurePhase::Exec, crashAt2}}};
      case CrashMode::DoubleDrain:
        return {{{fault::FailurePhase::Drain, drainIters}}};
      case CrashMode::Storm:
        return storm;
      case CrashMode::None:
      case CrashMode::Single:
        break;
    }
    return {};
}

bool
CaseSpec::parse(const std::string &s, CaseSpec &out, std::string &err)
{
    if (s.rfind(specPrefix, 0) != 0) {
        err = "spec must start with '" + std::string(specPrefix) + "'";
        return false;
    }
    std::string rest = s.substr(std::string(specPrefix).size());
    std::vector<std::string> tokens;
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        std::size_t colon = rest.find(':', pos);
        if (colon == std::string::npos)
            colon = rest.size();
        tokens.push_back(rest.substr(pos, colon - pos));
        pos = colon + 1;
    }
    if (tokens.empty()) {
        err = "empty spec";
        return false;
    }

    CaseSpec spec;
    if (tokens[0] == "wl") {
        spec.source = Source::Workload;
    } else if (tokens[0] == "ir") {
        spec.source = Source::Ir;
    } else if (tokens[0] == "pds") {
        spec.source = Source::Pds;
    } else if (tokens[0] == "serve") {
        spec.source = Source::Serve;
    } else {
        err = "unknown source '" + tokens[0] +
              "' (want wl|ir|pds|serve)";
        return false;
    }

    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        if (tok.empty())
            continue;
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos) {
            err = "token '" + tok + "' is not key=value";
            return false;
        }
        std::string key = tok.substr(0, eq);
        std::string val = tok.substr(eq + 1);
        // Numbers are plain decimal that fit their field: "5x", "-1"
        // or an overflowing value is an error, never a silent
        // truncation or wrap onto another case.
        bool number_ok = true;
        if (key == "seed") {
            number_ok = parseDecimal(val, spec.seed);
        } else if (key == "shrink") {
            number_ok = parseDecimal(val, spec.shrink);
        } else if (key == "mode") {
            if (val == "campaign") spec.mode = CrashMode::None;
            else if (val == "single") spec.mode = CrashMode::Single;
            else if (val == "dbl-rec")
                spec.mode = CrashMode::DoubleRecovery;
            else if (val == "dbl-drain")
                spec.mode = CrashMode::DoubleDrain;
            else if (val == "storm")
                spec.mode = CrashMode::Storm;
            else {
                err = "unknown mode '" + val + "'";
                return false;
            }
        } else if (key == "crash") {
            number_ok = parseDecimal(val, spec.crashAt);
        } else if (key == "crash2") {
            number_ok = parseDecimal(val, spec.crashAt2);
        } else if (key == "drain") {
            number_ok = parseDecimal(val, spec.drainIters);
        } else if (key == "storm") {
            std::string serr;
            if (!fault::FailureSchedule::parse(val, spec.storm, serr)) {
                err = "bad storm schedule: " + serr;
                return false;
            }
        } else if (key == "pds") {
            std::string perr;
            if (!pds::PdsSpec::parse(val, spec.pds, perr)) {
                err = "bad pds spec: " + perr;
                return false;
            }
        } else if (key == "serve") {
            std::string serr;
            if (!serve::ServeSpec::parse(val, spec.serve, serr)) {
                err = "bad serve spec: " + serr;
                return false;
            }
        } else if (key == "fault") {
            spec.fault = val != "0";
        } else if (key == "faults") {
            std::string ferr;
            if (!fault::FaultConfig::parse(val, spec.faults, ferr)) {
                err = "bad faults spec: " + ferr;
                return false;
            }
        } else if (key == "mcs") {
            number_ok = parseDecimal(val, spec.mcs);
            if (number_ok && spec.mcs == 0) {
                err = "mcs must be >= 1";
                return false;
            }
        } else if (key == "topo") {
            if (!noc::TopologyConfig::parse(val, spec.topo)) {
                err = "bad topology '" + val +
                      "' (want flat|tree<radix>)";
                return false;
            }
        } else {
            err = "unknown key '" + key + "'";
            return false;
        }
        if (!number_ok) {
            err = "bad value in '" + tok + "'";
            return false;
        }
    }
    out = spec;
    err.clear();
    return true;
}

// ---- Case construction -----------------------------------------------------

namespace {

struct CaseBuild
{
    /** Program, seed-drawn machine and, for pds/serve cases, the
     *  structure oracles. */
    harness::PreparedRun run;
    compiler::CompilerConfig ccfg;
    std::string summary;
};

/**
 * The hardware/compiler shape shared by the structure-program sources
 * (pds and serve): gated LightWSP, 1 core, WPQs big enough for the
 * prefix oracle's convergence requirement.
 */
void
drawStructureConfig(std::uint64_t seed, bool oracles,
                    core::SystemConfig &cfg,
                    compiler::CompilerConfig &ccfg)
{
    Rng rng(seed ^ 0x66757a7a2d636667ull); // "fuzz-cfg"
    cfg.scheme = core::Scheme::LightWsp;
    static const unsigned mcChoices[] = {1, 2, 2, 4};
    cfg.numMcs = mcChoices[rng.below(4)];
    // WPQs no smaller than 16: the prefix oracle needs converged
    // compiles, and thresholds below 4 stop converging.
    static const unsigned wpqChoices[] = {16, 64};
    cfg.mc.wpqEntries = wpqChoices[rng.below(2)];
    cfg.mc.strictFlushAcks = rng.chance(0.25);
    cfg.numCores = 1;
    cfg.maxCycles = 30'000'000;
    cfg.oraclesEnabled = oracles;
    cfg.applySchemeDefaults();
    ccfg.storeThreshold = static_cast<unsigned>(
        cfg.mc.wpqEntries / (rng.chance(0.5) ? 2 : 4));
}

/**
 * Apply the spec's machine-shape overrides (mcs=/topo= tokens) on top
 * of the seed draw. The draw itself is untouched — same rng stream, so
 * pinning the shape never perturbs the rest of the case. Scheme
 * defaults are not re-derived: System's constructor syncs mc.numMcs /
 * mc.treeAcks from the top-level fields itself.
 */
void
applyMachineOverrides(const CaseSpec &spec, core::SystemConfig &cfg)
{
    if (spec.mcs != 0)
        cfg.numMcs = spec.mcs;
    cfg.topology = spec.topo;
}

/** The `mcs=N [topo=treeR] wpq=W thr=T [strict]` tail of every case
 *  summary. */
std::string
shapeSummary(const core::SystemConfig &cfg,
             const compiler::CompilerConfig &ccfg)
{
    std::string s = " mcs=" + std::to_string(cfg.numMcs);
    if (cfg.topology.isTree())
        s += " topo=" + cfg.topology.toString();
    return s + " wpq=" + std::to_string(cfg.mc.wpqEntries) +
           " thr=" + std::to_string(ccfg.storeThreshold) +
           (cfg.mc.strictFlushAcks ? " strict" : "");
}

/**
 * Derive the system + compiler configuration from the seed. The draw is
 * independent of the shrink level so a shrunk reproducer still runs the
 * same hardware shape it failed on. Ranges follow what the crash-stress
 * suite has proven safe (tiny gated WPQs, strict commit, 1-4 MCs);
 * the spec's mcs=/topo= overrides reach past them for the scale-out
 * shapes (test_fuzz pins a 65-MC tree campaign through this path).
 */
CaseBuild
buildCase(const CaseSpec &spec, bool oracles)
{
    CaseBuild out;
    if (spec.source == CaseSpec::Source::Pds ||
        spec.source == CaseSpec::Source::Serve) {
        // Shrink ladder: halve the op tape (pds) / request stream
        // (serve) — the structure geometry is part of the bug surface,
        // so it stays fixed.
        harness::RunSpec rs;
        if (spec.source == CaseSpec::Source::Serve) {
            serve::ServeSpec ss = spec.serve;
            for (unsigned i = 0; i < spec.shrink; ++i)
                ss.numRequests = std::max(8u, ss.numRequests / 2);
            rs.workload = ss.toString();
        } else {
            pds::PdsSpec ps = spec.pds;
            for (unsigned i = 0; i < spec.shrink; ++i)
                ps.numOps = std::max(8u, ps.numOps / 2);
            rs.workload = ps.toString();
        }
        core::SystemConfig cfg;
        drawStructureConfig(spec.seed, oracles, cfg, out.ccfg);
        applyMachineOverrides(spec, cfg);

        // The plain gated-LightWSP build; the seed-drawn machine
        // replaces the pds layer's own.
        rs.scheme = core::Scheme::LightWsp;
        rs.mode = pds::PdsRunMode::Recovery;
        rs.storeThreshold = out.ccfg.storeThreshold;
        out.run = harness::prepareRun(rs);
        out.run.cfg = cfg;
        out.summary = "pds:" + out.run.pds->toString() + " footprint=" +
                      std::to_string(out.run.footprint);
        if (out.run.serve)
            out.summary = "serve " + out.run.serve->spec.toString() +
                          " -> " + out.summary;
        out.summary += shapeSummary(cfg, out.ccfg);
        return out;
    }

    FuzzProgram src = (spec.source == CaseSpec::Source::Workload)
                          ? randomWorkloadProgram(spec.seed, spec.shrink)
                          : randomIrProgram(spec.seed, spec.shrink);

    Rng rng(spec.seed ^ 0x66757a7a2d636667ull); // "fuzz-cfg"
    core::SystemConfig &cfg = out.run.cfg;
    cfg.scheme = core::Scheme::LightWsp;
    static const unsigned mcChoices[] = {1, 2, 2, 4};
    cfg.numMcs = mcChoices[rng.below(4)];
    static const unsigned wpqChoices[] = {4, 8, 8, 64};
    cfg.mc.wpqEntries = wpqChoices[rng.below(4)];
    if (cfg.mc.wpqEntries <= 8)
        cfg.core.febEntries = 8;
    cfg.mc.strictFlushAcks = rng.chance(0.25);
    bool oversubscribe = src.threads > 1 && rng.chance(0.3);
    cfg.numCores = oversubscribe ? std::max(1u, src.threads / 2)
                                 : std::min(4u, src.threads);
    if (oversubscribe)
        cfg.ctxQuantum = 1500;
    cfg.maxCycles = 30'000'000;
    cfg.oraclesEnabled = oracles;
    cfg.applySchemeDefaults();
    applyMachineOverrides(spec, cfg);

    static const unsigned thrChoices[] = {4, 8, 16, 32};
    out.ccfg.storeThreshold = thrChoices[rng.below(4)];
    compiler::LightWspCompiler comp(out.ccfg);
    out.run.prog = comp.compile(std::move(src.module));
    out.run.threads = src.threads;
    out.run.footprint = src.footprintBytes;
    out.run.lockAddrs = src.lockAddrs;
    out.summary = src.summary + shapeSummary(cfg, out.ccfg);
    return out;
}

/** Golden state + event mine for one build. */
struct Golden
{
    std::unique_ptr<core::System> sys;
    Tick cycles = 0;
    std::string error;  ///< nonempty: the golden run itself failed
};

Golden
runGolden(const CaseBuild &bc, std::uint64_t &checks, unsigned &runs)
{
    Golden g;
    const harness::PreparedRun &run = bc.run;
    g.sys = std::make_unique<core::System>(run.cfg, run.prog, run.threads);
    ++runs;
    auto r = g.sys->run();
    g.cycles = r.cycles;
    if (auto *o = g.sys->oracle()) {
        checks += o->checksRun();
        if (!o->ok()) {
            g.error = "golden run tripped oracle: " + o->firstViolation();
            return g;
        }
    }
    if (!r.completed) {
        g.error = "golden run did not complete (live-lock?)";
        return g;
    }
    // Structure-walk the clean final state (pds/serve cases): a
    // mismatch here is an emission/model bug, not a crash-consistency
    // one — report it before any power failures muddy the water.
    if (auto msg = run.checkSemantics(g.sys->execImage()); !msg.empty())
        g.error = "golden " + msg;
    return g;
}

/** Harvest a finished system's oracle; returns a violation or "". */
std::string
harvestOracle(core::System &sys, const char *what, std::uint64_t &checks)
{
    const auto *o = sys.oracle();
    if (!o)
        return {};
    checks += o->checksRun();
    if (!o->ok())
        return std::string(what) + " tripped oracle: " +
               o->firstViolation();
    return {};
}

/**
 * Execute one injection point. @return "" on pass, else the failure.
 * The point's crash mode maps to a failure schedule (CaseSpec::schedule)
 * that core::recoverThroughStorm plays out after the victim's crash.
 */
std::string
checkPoint(const CaseBuild &bc, const core::System &golden,
           const CaseSpec &pt, std::uint64_t &checks, unsigned &runs,
           CampaignResult &tally, CampaignResult *capture = nullptr)
{
    // The fault knob models a hardware bug in the victim machine only;
    // recovery always runs on correct hardware. Injected *hardware*
    // faults (pt.faults) likewise arm only the victim; recovery keeps
    // just the hardened checkpoint format so it can decode and verify
    // what the hardened victim persisted.
    const harness::PreparedRun &run = bc.run;
    core::SystemConfig vcfg = run.cfg;
    vcfg.mc.faultReleaseEarly = pt.fault;
    bool hw_faults = pt.faults.anyArmed();
    if (hw_faults) {
        vcfg.faults = pt.faults;
        vcfg.faults.enabled = true;
        vcfg.faults.hardenedCkpt = true;
        if (vcfg.faults.seed == 0)
            vcfg.faults.seed = pt.seed;
    }
    core::SystemConfig rcfg = run.cfg;
    rcfg.faults.hardenedCkpt = hw_faults;
    if (capture)
        vcfg.traceEnabled = true;

    const fault::FailureSchedule sched = pt.schedule();
    std::size_t pos = 0;
    core::System victim(vcfg, run.prog, run.threads);
    ++runs;
    core::RunResult vr =
        victim.runWithFailureStorm(pt.crashAt, sched.takeDrains(pos));
    if (capture) {
        if (const auto *sink = victim.traceSink())
            capture->victimTrace = sink->snapshot();
        if (const auto *o = victim.oracle()) {
            for (unsigned m = 0; m < vcfg.numMcs; ++m)
                capture->victimLastCommit.push_back(o->lastCommit(m));
        }
    }
    // Terminal-state check: golden-diff plus, for pds cases, the
    // structure-walk oracle over the final image.
    auto finalCheck = [&](const core::System &sys,
                          const char *what) -> std::string {
        if (auto e = run.diffAppState(sys.pmImage(), golden.pmImage(),
                                      what);
            !e.empty())
            return e;
        if (auto msg = run.checkSemantics(sys.execImage()); !msg.empty())
            return std::string(what) + " " + msg;
        return {};
    };

    if (auto e = harvestOracle(victim, "victim", checks); !e.empty())
        return e;
    if (vr.completed)
        return finalCheck(victim, "uncrashed victim");
    if (!victim.crashed())
        return "victim neither completed nor crashed";

    if (!pt.fault && !hw_faults) {
        // Fault-free gated LightWSP: a pds crash image must be a
        // program-order prefix of the recorded store stream.
        if (auto msg = run.checkCrashPrefix(victim.pmImage());
            !msg.empty()) {
            return "victim " + msg;
        }
    }

    const char *mode = modeToken(pt.mode);
    unsigned segment = 0;
    core::StormHooks hooks;
    hooks.afterSegment = [&](core::System &sys, const core::RunResult &) {
        std::string what =
            std::string(mode) + " recovery-" + std::to_string(++segment);
        return harvestOracle(sys, what.c_str(), checks);
    };
    core::StormWalk walk = core::recoverThroughStorm(
        victim, rcfg, run.prog, run.threads, run.lockAddrs, sched, pos,
        hooks);
    runs += static_cast<unsigned>(walk.segmentCycles.size());
    tally.recoveredExact += walk.recoveredExact;
    tally.recoveredDegraded += walk.recoveredDegraded;
    tally.detectedUnrecoverable += walk.detectedUnrecoverable;
    if (!walk.error.empty())
        return walk.error;
    if (walk.outcome == core::RecoveryOutcome::DetectedUnrecoverable) {
        // The hardening contract allows giving up, never lying: a
        // reported-unrecoverable image passes (unhealed poison from an
        // earlier fault can survive into a later image, too).
        // Sanity-check the claim — refusal without any armed fault
        // would be a regression.
        if (!hw_faults && !pt.fault)
            return "fault-free image classified unrecoverable: " +
                   walk.detail;
        return {};
    }
    if (!walk.result.completed)
        return std::string(mode) + " recovery did not complete";
    tally.failuresSurvived =
        std::max(tally.failuresSurvived, walk.failures);
    return finalCheck(*walk.sys, mode);
}

/**
 * Mine adversarial crash cycles from the golden run's oracle event
 * timeline: spread samples over boundary broadcasts, WPQ drain steps
 * and commit advances (with jitter, so failures land on message edges,
 * not just on them), plus the endpoints and random filler up to
 * @p want points.
 */
std::vector<Tick>
minePoints(const core::System &golden, Tick cycles, unsigned want,
           Rng &rng)
{
    std::vector<Tick> pts;
    auto sample = [&](const std::vector<Tick> &v, unsigned k) {
        for (unsigned i = 0; i < k && !v.empty(); ++i) {
            Tick t = v[(v.size() * i) / k];
            std::uint64_t jitter = rng.below(5); // t-2 .. t+2
            t = (t + jitter >= 2) ? t + jitter - 2 : 0;
            pts.push_back(t);
        }
    };
    if (const auto *o = golden.oracle()) {
        unsigned per = want / 3 + 1;
        sample(o->boundaryTicks(), per);
        sample(o->flushTicks(), per);
        sample(o->commitTicks(), per);
    }
    pts.push_back(0);
    if (cycles > 32)
        pts.push_back(cycles - cycles / 32); // just before the finish
    while (pts.size() < want)
        pts.push_back(rng.below(std::max<Tick>(cycles, 1)));

    for (auto &t : pts)
        t = std::min(t, cycles > 0 ? cycles - 1 : 0);
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    return pts;
}

/**
 * Minimize a failing point: climb the program-shrink ladder (rescaling
 * the crash cycle by the golden-duration ratio), then take the smallest
 * failing crash cycle from a halving ladder. Every probe re-runs the
 * full victim/recovery check, so the returned spec is failing by
 * construction; if nothing smaller fails, the original is returned.
 */
CaseSpec
shrinkFailure(CaseSpec failing, Tick golden_cycles,
              std::uint64_t &checks, unsigned &runs, bool &shrunk)
{
    shrunk = false;
    CampaignResult scratch;  // shrink probes don't count verdict tallies

    // Phase 0 (storm cases): minimize the failure schedule before the
    // program — drop events one at a time while the case still fails,
    // then halve exec gaps. A schedule that empties entirely reduces the
    // case to a plain single failure.
    if (failing.mode == CrashMode::Storm && !failing.storm.empty()) {
        CaseBuild bc = buildCase(failing, true);
        Golden g = runGolden(bc, checks, runs);
        if (g.error.empty()) {
            bool changed = true;
            while (changed && !failing.storm.empty()) {
                changed = false;
                for (std::size_t i = 0; i < failing.storm.size(); ++i) {
                    CaseSpec probe = failing;
                    probe.storm = failing.storm.without(i);
                    if (!checkPoint(bc, *g.sys, probe, checks, runs,
                                    scratch)
                             .empty()) {
                        failing = probe;
                        shrunk = true;
                        changed = true;
                        break;
                    }
                }
            }
            changed = true;
            while (changed) {
                changed = false;
                for (std::size_t i = 0; i < failing.storm.size(); ++i) {
                    CaseSpec probe = failing;
                    if (!probe.storm.halveExecGap(i))
                        continue;
                    if (!checkPoint(bc, *g.sys, probe, checks, runs,
                                    scratch)
                             .empty()) {
                        failing = probe;
                        shrunk = true;
                        changed = true;
                    }
                }
            }
        }
    }

    // Phase 1: smaller program at the same relative position.
    for (unsigned level = failing.shrink + 1; level <= maxShrinkLevel;
         ++level) {
        CaseSpec cand = failing;
        cand.shrink = level;
        CaseBuild bc = buildCase(cand, true);
        Golden g = runGolden(bc, checks, runs);
        if (!g.error.empty())
            break;
        Tick scaled = golden_cycles
                          ? (failing.crashAt * g.cycles) / golden_cycles
                          : failing.crashAt;
        bool found = false;
        for (Tick t : {scaled, scaled / 2, scaled + scaled / 2}) {
            CaseSpec probe = cand;
            probe.crashAt = std::min(t, g.cycles ? g.cycles - 1 : 0);
            if (probe.mode == CrashMode::DoubleRecovery)
                probe.crashAt2 = probe.crashAt;
            if (!checkPoint(bc, *g.sys, probe, checks, runs, scratch)
                     .empty()) {
                failing = probe;
                golden_cycles = g.cycles;
                found = true;
                shrunk = true;
                break;
            }
        }
        if (!found)
            break;
    }

    // Phase 2: earliest failing crash cycle on a halving ladder.
    {
        CaseBuild bc = buildCase(failing, true);
        Golden g = runGolden(bc, checks, runs);
        if (g.error.empty()) {
            std::vector<Tick> ladder = {0, 1};
            for (Tick t = failing.crashAt / 16; t < failing.crashAt;
                 t *= 2) {
                if (t > 1)
                    ladder.push_back(t);
                if (t == 0)
                    break;
            }
            for (Tick t : ladder) {
                if (t >= failing.crashAt)
                    continue;
                CaseSpec probe = failing;
                probe.crashAt = t;
                if (probe.mode == CrashMode::DoubleRecovery)
                    probe.crashAt2 = t;
                if (!checkPoint(bc, *g.sys, probe, checks, runs,
                                scratch)
                         .empty()) {
                    failing = probe;
                    shrunk = true;
                    break;
                }
            }
        }
    }
    return failing;
}

} // namespace

// ---- Campaign driver -------------------------------------------------------

CampaignResult
runCampaign(const CaseSpec &spec, const CampaignOptions &opt)
{
    CampaignResult res;

    CaseBuild bc = buildCase(spec, opt.oracles);
    Golden g = runGolden(bc, res.oracleChecks, res.runsExecuted);
    res.goldenCycles = g.cycles;
    if (!g.error.empty()) {
        res.passed = false;
        res.failure = g.error + " [" + bc.summary + "]";
        res.reproducer = spec;
        return res;
    }

    // Replay path: one exact injection.
    if (spec.mode != CrashMode::None) {
        ++res.pointsTried;
        std::string err =
            checkPoint(bc, *g.sys, spec, res.oracleChecks,
                       res.runsExecuted, res,
                       opt.captureTrace ? &res : nullptr);
        if (!err.empty()) {
            res.passed = false;
            res.failure = err + " [" + bc.summary + "]";
            res.reproducer = spec;
        }
        return res;
    }

    // Full campaign: mined single crashes, then double variants.
    Rng rng(spec.seed ^ 0x706f696e7473ull); // "points"
    std::vector<Tick> pts =
        minePoints(*g.sys, g.cycles, opt.minCrashPoints, rng);

    std::vector<CaseSpec> injections;
    for (Tick t : pts) {
        CaseSpec pt = spec;
        pt.mode = CrashMode::Single;
        pt.crashAt = t;
        injections.push_back(pt);
    }
    if (opt.doubleCrash) {
        for (std::size_t i = 0; i < pts.size(); i += 3) {
            CaseSpec pt = spec;
            pt.mode = CrashMode::DoubleRecovery;
            pt.crashAt = pts[i];
            pt.crashAt2 =
                pts[(i + pts.size() / 2) % pts.size()];
            injections.push_back(pt);
        }
        for (std::size_t i = 1; i < pts.size(); i += 4) {
            CaseSpec pt = spec;
            pt.mode = CrashMode::DoubleDrain;
            pt.crashAt = pts[i];
            pt.drainIters = static_cast<unsigned>(rng.below(3));
            injections.push_back(pt);
        }
    }
    if (opt.stormCrash) {
        // Every second mined point also runs under a seeded storm; the
        // schedule is a pure function of (campaign seed, point index),
        // so a reproducer spec regenerates the exact storm via its
        // storm= token.
        for (std::size_t i = 0; i < pts.size(); i += 2) {
            CaseSpec pt = spec;
            pt.mode = CrashMode::Storm;
            pt.crashAt = pts[i];
            pt.storm = fault::FailureSchedule::random(
                spec.seed * 1000003 + i,
                2 + static_cast<unsigned>(i % 3),
                g.cycles / 6 + 1);
            injections.push_back(pt);
        }
    }

    for (const CaseSpec &pt : injections) {
        ++res.pointsTried;
        std::string err = checkPoint(bc, *g.sys, pt, res.oracleChecks,
                                     res.runsExecuted, res);
        if (err.empty())
            continue;
        res.passed = false;
        res.failure = err + " [" + bc.summary + "]";
        res.reproducer = pt;
        if (opt.shrinkOnFailure) {
            res.reproducer =
                shrinkFailure(pt, g.cycles, res.oracleChecks,
                              res.runsExecuted, res.shrunk);
        }
        return res;
    }
    return res;
}

StaticCheckResult
staticCheck(const CaseSpec &spec)
{
    CaseBuild bc = buildCase(spec, /*oracles=*/false);
    analysis::CheckReport rep =
        analysis::checkCompiledProgram(bc.run.prog, bc.ccfg);
    StaticCheckResult out;
    out.ok = rep.ok();
    out.summary = bc.summary;
    out.report = rep.describe();
    return out;
}

} // namespace fuzz
} // namespace lwsp
