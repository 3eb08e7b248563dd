/**
 * @file
 * Repository benchmark: runs one named workload as a closed loop with a
 * single client on a single thread — one simulation point at a time, no
 * SweepExecutor fan-out — so host numbers measure the simulator rather
 * than the host's scheduler.
 *
 *   lwsp_perfbench --workload full_runs|crash_recover --seed N
 *                  --seconds S --trace 0|1 [--report FILE] [--spans FILE]
 *
 * A run repeats whole rounds — one pass over the workload's points —
 * and sets the workload up a fixed number of times, spread between the
 * rounds (setup_s is the median). The round count follows from S and
 * the workload's fixed round cost, never from the clock, so every
 * commit measures the same number of rounds. Every layer is driven
 * through its public functions and timed from outside with the steady
 * clock; simulated metrics and work counts come from RunResult,
 * CompileStats and System::registerStats and are taken from the first
 * round (they repeat exactly). Every point's output is checked; a
 * point that fails any check counts as failed.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 runs half the
 * rounds untraced and half traced, records a span around every layer call
 * (name, start, end, parent, point id; kept in memory, written to
 * --spans at exit) and prints the per-layer metrics: each layer's self
 * time per set-up plus round, the work counts, and the tracing
 * overhead. The last line of stdout is always the one-line JSON result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "core/system.hh"
#include "harness/runner.hh"
#include "pds/pds.hh"
#include "serve/serve.hh"
#include "workloads/generator.hh"

using namespace lwsp;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Spans -------------------------------------------------------------

/** One timed layer call. Spans nest: parent is the enclosing span. */
struct Span
{
    std::string name;
    double start = 0, end = 0;  ///< seconds since the tracer started
    int parent = -1;            ///< index into the span list, -1 = root
    int root = 0;               ///< index of the outermost enclosing span
    unsigned point = 0;         ///< simulation point id (0 = set-up)
};

/** In-memory span recorder; a no-op while disabled. */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    void setPoint(unsigned id) { point_ = id; }

    int
    open(const char *name)
    {
        if (!enabled_)
            return -1;
        int parent = stack_.empty() ? -1 : stack_.back();
        int idx = static_cast<int>(spans_.size());
        Span s;
        s.name = name;
        s.start = secondsSince(t0_);
        s.parent = parent;
        s.root = parent < 0 ? idx : spans_[parent].root;
        s.point = point_;
        spans_.push_back(std::move(s));
        stack_.push_back(idx);
        return idx;
    }

    void
    close(int idx)
    {
        if (idx < 0)
            return;
        spans_[idx].end = secondsSince(t0_);
        stack_.pop_back();
    }

    /**
     * Self seconds per span name, summed over spans under roots named
     * @p root_name: a span's duration minus the time its direct
     * children cover (children nest and never overlap on one thread).
     */
    std::map<std::string, double>
    selfSeconds(const std::string &root_name) const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                childTime[s.parent] += s.end - s.start;
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (spans_[s.root].name == root_name)
                out[s.name] += (s.end - s.start) - childTime[i];
        }
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"schema\":\"lwsp-perfbench-spans-v1\",\"spans\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,"
                          "\"point\":%u}",
                          s.start, s.end, s.parent, s.point);
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\","
               << buf;
        }
        os << "\n]}\n";
    }

  private:
    bool enabled_ = false;
    unsigned point_ = 0;
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Tracer gTracer;  // one client on one thread: a single recorder suffices

/** Run @p f inside a span named @p name. */
template <typename F>
decltype(auto)
timed(const char *name, F &&f)
{
    struct Scope
    {
        int idx;
        ~Scope() { gTracer.close(idx); }
    } scope{gTracer.open(name)};
    return f();
}

// ---- Measurements ------------------------------------------------------

/** Deterministic work counts of one round (or one set-up). */
struct Counts
{
    std::uint64_t simCycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t boundaryWait = 0, sbFull = 0, febFull = 0,
                  lockBlocked = 0;
    std::uint64_t l1Misses = 0, wpqFlushed = 0, wpqFallback = 0,
                  regionsCommitted = 0;
    std::uint64_t wpqMaxOcc = 0;
    std::uint64_t nocMessages = 0, boundaries = 0, bcastRetries = 0;
    double bcastLatSum = 0;  ///< per-run mean bdry-ACK latency x boundaries
    double bcastLatMax = 0;
    std::uint64_t compileBoundaries = 0, checkpointStores = 0;
    std::uint64_t recoveredDegraded = 0, unrecoverable = 0;
    std::uint64_t traceEvents = 0;

    /** Fold in one System's run: @p sim_now is its final tick. */
    void
    add(const core::RunResult &r, Tick sim_now)
    {
        simCycles += sim_now;
        insts += r.instsRetired;
        boundaryWait += r.boundaryWaitCycles;
        sbFull += r.sbFullCycles;
        febFull += r.febFullCycles;
        lockBlocked += r.lockBlockedCycles;
        l1Misses += r.l1Misses;
        wpqFlushed += r.wpqFlushedEntries;
        wpqFallback += r.wpqFallbackFlushes;
        regionsCommitted += r.regionsCommitted;
        wpqMaxOcc = std::max<std::uint64_t>(wpqMaxOcc, r.maxWpqOccupancy);
        nocMessages += r.nocMessages;
        boundaries += r.boundaries;
        bcastRetries += r.bcastRetries;
        bcastLatSum += r.bcastLatencyAvg * static_cast<double>(r.boundaries);
        bcastLatMax = std::max(bcastLatMax, r.bcastLatencyMax);
    }

    void
    addCompile(const compiler::CompileStats &s)
    {
        compileBoundaries += s.boundaries;
        checkpointStores += s.checkpointStores;
    }
};

/** What one round (or one set-up) produced. */
struct Tally
{
    Counts counts;
    unsigned attempted = 0, failed = 0;
    std::vector<std::string> pointNames;
    std::vector<Tick> pointCycles;  ///< simulated cycles per point
    std::vector<double> pointSeconds;  ///< host seconds per point
    std::vector<double> slowdowns;  ///< simulated cycles / reference cycles
    std::vector<double> mttr;       ///< power-on to first served request
    std::vector<double> reqP99;     ///< p99 request latency per tape
};

/** A point's output checks; the first failure is reported. */
struct Checker
{
    bool ok = true;

    void
    expect(bool cond, const std::string &what)
    {
        if (!cond && ok) {
            ok = false;
            std::cerr << "check failed: " << what << '\n';
        }
    }
};

/**
 * Time one simulation point: @p body runs inside a "point" span with a
 * fresh point id and returns the simulated cycles of every System it
 * ran. A point fails if any check fails or any layer panics.
 */
void
runPoint(Tally &t, const std::string &name,
         const std::function<Tick(Checker &)> &body)
{
    static unsigned nextPoint = 1;
    gTracer.setPoint(nextPoint++);
    Checker chk;
    auto start = Clock::now();
    Tick cycles = 0;
    try {
        cycles = timed("point", [&] { return body(chk); });
    } catch (const std::exception &e) {
        chk.expect(false, name + ": " + e.what());
    }
    t.pointSeconds.push_back(secondsSince(start));
    t.pointNames.push_back(name);
    t.pointCycles.push_back(cycles);
    ++t.attempted;
    t.failed += chk.ok ? 0 : 1;
    gTracer.setPoint(0);
}

/** Reference CSV as row name -> column -> cell text. */
using CsvTable = std::map<std::string, std::map<std::string, std::string>>;

CsvTable
readCsv(const std::string &path)
{
    CsvTable out;
    std::ifstream is(path);
    std::string line;
    std::vector<std::string> header;
    auto split = [](const std::string &s) {
        std::vector<std::string> cells;
        std::stringstream ss(s);
        std::string c;
        while (std::getline(ss, c, ','))
            cells.push_back(c);
        return cells;
    };
    if (!std::getline(is, line))
        return out;
    header = split(line);
    while (std::getline(is, line)) {
        auto cells = split(line);
        if (cells.empty())
            continue;
        for (std::size_t i = 1; i < cells.size() && i < header.size(); ++i)
            out[cells[0]][header[i]] = cells[i];
    }
    return out;
}

/** The committed CSVs print doubles with 10 significant digits. */
std::string
tenDigits(double v)
{
    std::ostringstream os;
    os << std::setprecision(10) << v;
    return os.str();
}

/** Seed-derived sub-seed for stream @p stream (splitmix-style). */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    Rng r(seed * 0x100000001b3ull + stream);
    return r.next();
}

// ---- Workloads ---------------------------------------------------------

class Workload
{
  public:
    /** How much a run measures; fixed per workload, so never clocked. */
    struct Budget
    {
        /** Host seconds of one round on the host the first baseline was
         *  taken on: a run of S seconds measures max(1, S / this) rounds. */
        double roundSeconds;
        /** Set-ups per untraced run; setup_s is their median. */
        unsigned setups;
    };

    virtual ~Workload() = default;
    virtual Budget budget() const = 0;
    /** One complete set-up: inputs, compilation, golden runs. */
    virtual void setup(Tally &t) = 0;
    /** One closed-loop pass over every point. */
    virtual void round(Tally &t) = 0;
};

/**
 * The fig16 half of full_runs: 8 cores / 2 MCs, flat fabric — rb at 64
 * threads and intruder at 32, each under Baseline and LightWSP. The
 * generator takes no seed, so neither do these points.
 */
class ThreadsPoints
{
  public:
    void
    setup(Tally &t)
    {
        points_.clear();
        for (const auto &[app, threads] : kApps) {
            const auto &profile = workloads::profileByName(app);
            for (core::Scheme s :
                 {core::Scheme::Baseline, core::Scheme::LightWsp}) {
                Point &p = points_.emplace_back();
                p.app = app;
                p.threads = threads;
                harness::RunSpec spec;
                spec.workload = app;
                spec.scheme = s;
                spec.threads = threads;
                workloads::Workload w = timed("workloads.generate", [&] {
                    return workloads::generate(profile);
                });
                p.cfg = harness::makeConfig(profile, spec);
                // Same warm-up cut as harness::Runner (fig16).
                p.cfg.warmupInsts =
                    w.estimatedInstsPerThread * threads * 35 / 100;
                p.prog = timed("compiler.compile", [&] {
                    return harness::prepareProgram(std::move(w), spec);
                });
                t.counts.addCompile(p.prog.stats);
            }
        }
        ref_ = readCsv("results/fig16_threads.csv");
    }

    void
    round(Tally &t)
    {
        Tick baseCycles = 0;  // points alternate Baseline, LightWSP per app
        for (const Point &p : points_) {
            bool lwsp = p.cfg.scheme == core::Scheme::LightWsp;
            std::string col = std::to_string(p.threads) + "t";
            std::string name =
                p.app + "/" + col + "/" + core::schemeName(p.cfg.scheme);
            runPoint(t, name, [&](Checker &chk) {
                auto sys = timed("core.construct", [&] {
                    return std::make_unique<core::System>(p.cfg, p.prog,
                                                          p.threads);
                });
                auto r = timed("core.run", [&] { return sys->run(); });
                chk.expect(r.completed, name + " did not complete");
                t.counts.add(r, sys->now());
                if (!lwsp) {
                    baseCycles = r.cycles;
                    return sys->now();
                }
                chk.expect(baseCycles > 0, name + ": no Baseline cycles");
                if (!baseCycles)
                    return sys->now();
                double sd = static_cast<double>(r.cycles) /
                            static_cast<double>(baseCycles);
                t.slowdowns.push_back(sd);
                // fig16's committed reference cell for this point.
                std::string want = ref_[p.app][col];
                chk.expect(tenDigits(sd) == want,
                           name + " slowdown " + tenDigits(sd) +
                               " != results/fig16_threads.csv " + want);
                return sys->now();
            });
        }
    }

  private:
    struct Point
    {
        std::string app;
        unsigned threads = 0;
        core::SystemConfig cfg;
        compiler::CompiledProgram prog;
    };
    static constexpr std::pair<const char *, unsigned> kApps[] = {
        {"rb", 64}, {"intruder", 32}};
    std::vector<Point> points_;
    CsvTable ref_;
};

fault::FaultConfig
lossFaults(std::uint64_t seed)
{
    fault::FaultConfig fc;
    fc.enabled = true;
    fc.seed = seed;
    fc.bcastLossPm = 100;  // 10% per link
    return fc;
}

/**
 * The fig23 half of full_runs: LightWSP on the flat and tree4 fabrics,
 * each fault-free and with 10% per-link broadcast loss — a seeded
 * varnish serve tape at 64 MCs, and rb at 8 threads on 16 MCs. The rb
 * rows keep fig23's own fault seeds so they reproduce its committed
 * reference rows; the serve rows' tape and fault seeds follow --seed.
 */
class ScaleoutPoints
{
  public:
    explicit ScaleoutPoints(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Tally &t)
    {
        const auto &profile = workloads::profileByName("rb");
        rbSpec_ = harness::RunSpec{};
        rbSpec_.workload = "rb";
        rbSpec_.scheme = core::Scheme::LightWsp;
        rbSpec_.threads = kRbThreads;
        workloads::Workload w = timed("workloads.generate", [&] {
            return workloads::generate(profile);
        });
        rbWarmup_ = w.estimatedInstsPerThread * kRbThreads * 35 / 100;
        rbProg_ = timed("compiler.compile", [&] {
            return harness::prepareProgram(std::move(w), rbSpec_);
        });
        t.counts.addCompile(rbProg_.stats);

        serve::ServeSpec ss;
        ss.profile = serve::Profile::Varnish;
        ss.sizeClass = 1;
        ss.numRequests = kServeRequests;
        ss.seed = subSeed(seed_, 1);
        serve_ = timed("serve.build",
                       [&] { return serve::buildWorkload(ss); });
        serveProg_ = timed("compiler.compile", [&] {
            return pds::preparePdsProgram(serve_.pdsSpec, serve_.ops,
                                          pds::PdsScheme::LightWsp,
                                          pds::PdsRunMode::Perf);
        });
        t.counts.addCompile(serveProg_.stats);
        ref_ = readCsv("results/fig23_scaleout.csv");
    }

    void
    round(Tally &t)
    {
        noc::TopologyConfig tree4;
        tree4.kind = noc::TopologyConfig::Kind::Tree;
        tree4.radix = 4;
        // fig23 grid row of {topo}/16/rb/t8/loss100: its fault seed.
        const std::uint64_t kRbLossRow[] = {10, 26};
        unsigned topoIdx = 0;
        for (const noc::TopologyConfig &topo :
             {noc::TopologyConfig{}, tree4}) {
            Tick rbCycles[2] = {0, 0}, serveCycles[2] = {0, 0};
            for (bool lossy : {false, true}) {
                runRb(t, topo, lossy,
                      lossy ? 0xf23u + 7919u * kRbLossRow[topoIdx] : 0,
                      rbCycles[lossy]);
                runServe(t, topo, lossy,
                         subSeed(seed_, 2 + topoIdx), serveCycles[lossy]);
            }
            // The fabric's loss slowdown over both tapes: per-tape ratios
            // of the tree's heavy-tailed retry rounds vary too much with
            // the fault seed to compare runs by.
            Tick clean = rbCycles[0] + serveCycles[0];
            Tick lossy = rbCycles[1] + serveCycles[1];
            if (clean && rbCycles[1] && serveCycles[1])
                t.slowdowns.push_back(static_cast<double>(lossy) /
                                      static_cast<double>(clean));
            ++topoIdx;
        }
    }

  private:
    static constexpr unsigned kRbThreads = 8, kRbMcs = 16;
    static constexpr unsigned kServeMcs = 64, kServeRequests = 96;

    void
    runRb(Tally &t, const noc::TopologyConfig &topo,
          bool lossy, std::uint64_t fault_seed, Tick &cycles)
    {
        std::string name = topo.toString() + "/" + std::to_string(kRbMcs) +
                           "/rb/t" + std::to_string(kRbThreads) +
                           (lossy ? "/loss100" : "");
        runPoint(t, name, [&](Checker &chk) {
            harness::RunSpec spec = rbSpec_;
            spec.numMcs = kRbMcs;
            spec.topology = topo;
            core::SystemConfig cfg =
                harness::makeConfig(workloads::profileByName("rb"), spec);
            cfg.warmupInsts = rbWarmup_;
            if (lossy)
                cfg.faults = lossFaults(fault_seed);
            auto sys = timed("core.construct", [&] {
                return std::make_unique<core::System>(cfg, rbProg_,
                                                      kRbThreads);
            });
            auto r = timed("core.run", [&] { return sys->run(); });
            chk.expect(r.completed, name + " did not complete");
            t.counts.add(r, sys->now());
            cycles = r.cycles;
            // fig23's committed reference row for this point.
            const auto &row = ref_[name];
            for (const auto &[col, got] :
                 {std::pair<const char *, std::uint64_t>{"cycles",
                                                         r.cycles},
                  {"noc_messages", r.nocMessages},
                  {"bcast_retries", r.bcastRetries}}) {
                auto it = row.find(col);
                chk.expect(it != row.end() &&
                               it->second == std::to_string(got),
                           name + " " + col + " " + std::to_string(got) +
                               " != results/fig23_scaleout.csv " +
                               (it != row.end() ? it->second : "(none)"));
            }
            return sys->now();
        });
    }

    void
    runServe(Tally &t, const noc::TopologyConfig &topo,
             bool lossy, std::uint64_t fault_seed, Tick &cycles)
    {
        std::string name = topo.toString() + "/" +
                           std::to_string(kServeMcs) + "/serve/varnish" +
                           (lossy ? "/loss100" : "");
        runPoint(t, name, [&](Checker &chk) {
            auto cfg = pds::makePdsConfig(pds::PdsScheme::LightWsp,
                                          pds::PdsRunMode::Perf);
            cfg.numMcs = kServeMcs;
            cfg.topology = topo;
            if (lossy)
                cfg.faults = lossFaults(fault_seed);
            auto sys = timed("core.construct", [&] {
                return std::make_unique<core::System>(cfg, serveProg_, 1);
            });
            auto r = timed("core.run", [&] { return sys->run(); });
            chk.expect(r.completed, name + " did not complete");
            std::string err = timed("pds.check", [&] {
                return pds::checkSemantics(serve_.pdsSpec, serve_.ops,
                                           sys->execImage());
            });
            chk.expect(err.empty(), name + " semantics: " + err);
            t.counts.add(r, sys->now());
            cycles = r.cycles;
            return sys->now();
        });
    }

    std::uint64_t seed_;
    harness::RunSpec rbSpec_;
    std::uint64_t rbWarmup_ = 0;
    compiler::CompiledProgram rbProg_;
    serve::ServeWorkload serve_;
    compiler::CompiledProgram serveProg_;
    CsvTable ref_;
};

/**
 * full_runs: every point is one System run from start to finish — the
 * fig16 thread points on a 2-MC machine, then the fig23 scale-out points
 * on 16- and 64-MC machines. The two sets load different layers (cpu,
 * sim and the persist path; noc and fault) but form one workload: on a
 * shared host the big fig23 machines' host times drift more than a short
 * run of them alone averages out, and one longer run of both sets
 * dilutes that drift (perfbench/README.md has the figures).
 */
class FullRunsWorkload : public Workload
{
  public:
    explicit FullRunsWorkload(std::uint64_t seed) : scaleout_(seed) {}

    Budget budget() const override { return {15.0, 100}; }

    void
    setup(Tally &t) override
    {
        threads_.setup(t);
        scaleout_.setup(t);
    }

    void
    round(Tally &t) override
    {
        threads_.round(t);
        scaleout_.round(t);
    }

  private:
    ThreadsPoints threads_;
    ScaleoutPoints scaleout_;
};

/**
 * crash_recover: seeded horde and varnish tapes on the pds hash table
 * under LightWSP (Recovery mode) and pmtx. Set-up runs one traced golden
 * per (tape, scheme) cell; a round then crashes each cell at evenly
 * spaced, seed-offset cycles and takes every point through the §IV-F
 * drain, checked recovery, an MTTR probe, the run-out and the semantic
 * oracle.
 */
class CrashRecoverWorkload : public Workload
{
  public:
    explicit CrashRecoverWorkload(std::uint64_t seed) : seed_(seed) {}

    Budget budget() const override { return {3.3, 9}; }

    void
    setup(Tally &t) override
    {
        cells_.clear();
        for (unsigned tape = 0; tape < 2 * kTapesPerProfile; ++tape) {
            serve::ServeSpec ss;
            ss.profile = tape % 2 ? serve::Profile::Varnish
                                  : serve::Profile::Horde;
            ss.sizeClass = 1;
            ss.numRequests = kRequests;
            ss.seed = subSeed(seed_, 1 + tape);
            auto wl = std::make_shared<serve::ServeWorkload>(timed(
                "serve.build", [&] { return serve::buildWorkload(ss); }));
            pds::PdsParams params = timed("serve.build", [&] {
                return pds::PdsModel(wl->pdsSpec, wl->ops).params();
            });
            for (pds::PdsScheme s :
                 {pds::PdsScheme::LightWsp, pds::PdsScheme::Pmtx}) {
                auto c = std::make_unique<Cell>();
                c->wl = wl;
                c->params = params;
                c->scheme = s;
                c->cfg = pds::makePdsConfig(s, pds::PdsRunMode::Recovery);
                c->prog = timed("compiler.compile", [&] {
                    return pds::preparePdsProgram(
                        wl->pdsSpec, wl->ops, s, pds::PdsRunMode::Recovery);
                });
                t.counts.addCompile(c->prog.stats);
                golden(t, *c);
                Rng rng(subSeed(seed_, 100 + cells_.size()));
                c->phase = rng.uniform();
                cells_.push_back(std::move(c));
            }
        }
    }

    void
    round(Tally &t) override
    {
        for (const auto &c : cells_) {
            for (unsigned k = 0; k < kPointsPerCell; ++k) {
                // Evenly spaced over the golden run, offset by the seed.
                Tick at = 1 + static_cast<Tick>(
                                  static_cast<double>(c->goldenCycles - 1) *
                                  (k + c->phase) / kPointsPerCell);
                crashPoint(t, *c, at);
            }
        }
    }

  private:
    // Several small tapes per profile rather than one long one: a run
    // then averages over tapes, so its figures depend less on the seed.
    static constexpr unsigned kTapesPerProfile = 4;
    static constexpr unsigned kRequests = 128;
    static constexpr unsigned kPointsPerCell = 16;  // 256 per round
    static constexpr unsigned kMeanIa = 2000;       // fixed arrival rate

    struct Cell
    {
        std::shared_ptr<const serve::ServeWorkload> wl;
        pds::PdsParams params;
        pds::PdsScheme scheme = pds::PdsScheme::LightWsp;
        core::SystemConfig cfg;
        compiler::CompiledProgram prog;
        Tick goldenCycles = 0;  ///< crash-free run length
        double phase = 0;       ///< seeded offset of the crash grid
        std::string name() const
        {
            return std::string(serve::profileName(wl->spec.profile)) +
                   "/" + pds::pdsSchemeName(scheme);
        }
    };

    /** Traced crash-free run: crash-grid length, marks, p99, oracle. */
    void
    golden(Tally &t, Cell &c)
    {
        core::SystemConfig cfg = c.cfg;
        cfg.traceEnabled = true;
        cfg.traceMask = trace::categoryBit(trace::Category::Serve) |
                        trace::categoryBit(trace::Category::Wpq);
        cfg.traceBufferEvents = std::size_t(1) << 18;
        cfg.core.serveMarkAddr = c.params.served;
        std::string name = c.name() + "/golden";
        runPoint(t, name, [&](Checker &chk) {
            auto sys = timed("core.construct", [&] {
                return std::make_unique<core::System>(cfg, c.prog, 1);
            });
            auto r = timed("core.run", [&] { return sys->run(); });
            chk.expect(r.completed, name + " did not complete");
            std::string err = timed("pds.check", [&] {
                return pds::checkSemantics(c.wl->pdsSpec, c.wl->ops,
                                           sys->execImage());
            });
            chk.expect(err.empty(), name + " semantics: " + err);
            c.goldenCycles = sys->now();
            t.counts.add(r, sys->now());

            stats::Registry reg;
            sys->registerStats(reg);
            t.counts.traceEvents += static_cast<std::uint64_t>(
                reg.group("system").funcValue("traceEvents"));

            serve::TailReport tail = timed("serve.fold", [&] {
                auto marks = serve::LatencyRecorder::extractMarks(
                    *c.wl, sys->traceSink()->snapshot());
                serve::ServeSpec arr = c.wl->spec;
                arr.meanIa = kMeanIa;
                arr.burst = 0;
                return serve::LatencyRecorder::fold(
                    *c.wl, marks, serve::arrivalTimes(arr));
            });
            t.reqP99.push_back(tail.p99);
            return sys->now();
        });
    }

    void
    crashPoint(Tally &t, const Cell &c, Tick at)
    {
        std::string name = c.name() + "/crash@" + std::to_string(at);
        runPoint(t, name, [&](Checker &chk) {
            auto victim = timed("core.construct", [&] {
                return std::make_unique<core::System>(c.cfg, c.prog, 1);
            });
            auto vr = timed("core.crash",
                            [&] { return victim->runWithPowerFailure(at); });
            chk.expect(!vr.completed && victim->crashed(),
                       name + " finished before its crash cycle");
            t.counts.add(vr, victim->now());

            auto rec = timed("core.recover", [&] {
                return core::System::recoverChecked(
                    c.cfg, c.prog, 1, victim->pmImage(), {},
                    &victim->crashReport());
            });
            if (rec.outcome == core::RecoveryOutcome::RecoveredDegraded)
                ++t.counts.recoveredDegraded;
            if (rec.outcome == core::RecoveryOutcome::DetectedUnrecoverable)
                ++t.counts.unrecoverable;
            // No faults are injected: anything but Recovered is a bug.
            chk.expect(rec.outcome == core::RecoveryOutcome::Recovered,
                       name + " recovered as " +
                           core::recoveryOutcomeName(rec.outcome) + ": " +
                           rec.detail);
            if (!rec.sys)
                return victim->now();
            core::System &sys = *rec.sys;

            std::uint64_t servedAtBoot =
                sys.execImage().read(c.params.served);
            auto probe = timed("core.probe", [&] {
                return sys.runUntilWordChanges(c.params.served,
                                               servedAtBoot);
            });
            // A crash after the last request leaves nothing to serve.
            if (probe.served)
                t.mttr.push_back(static_cast<double>(probe.serveTick));

            auto rr = timed("core.run", [&] { return sys.run(); });
            chk.expect(rr.completed, name + " recovered run incomplete");
            std::string err = timed("pds.check", [&] {
                return pds::checkSemantics(c.wl->pdsSpec, c.wl->ops,
                                           sys.execImage());
            });
            chk.expect(err.empty(), name + " semantics: " + err);
            t.counts.add(rr, sys.now());
            // One-failure lifetime against the crash-free run.
            t.slowdowns.push_back(
                static_cast<double>(victim->now() + sys.now()) /
                static_cast<double>(c.goldenCycles));
            return victim->now() + sys.now();
        });
    }

    std::uint64_t seed_;
    std::vector<std::unique_ptr<Cell>> cells_;
};

// ---- Reporting ---------------------------------------------------------

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Linear interpolation between closest ranks.
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
geomean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

std::string
number(double v)
{
    char buf[40];
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < ms.size(); ++i) {
        os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": "
           << number(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << '}';
    return os.str();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Simulated metrics and work counts: they repeat exactly per seed. */
std::vector<Metric>
deterministicMetrics(const Tally &setup, const Tally &first)
{
    const Counts &c = first.counts;
    auto d = [](std::uint64_t x) { return static_cast<double>(x); };
    double insts = d(c.insts);
    return {
        {"slowdown_geomean", geomean(first.slowdowns), "x"},
        {"bdry_ack_lat_avg_cycles",
         c.boundaries ? c.bcastLatSum / d(c.boundaries) : 0.0, "cycles"},
        {"sim.req_p99_cycles", geomean(setup.reqP99), "cycles"},
        {"sim.mttr_cycles_p50", percentile(first.mttr, 0.5), "cycles"},
        {"sim.cycles", d(c.simCycles), "cycles"},
        {"cpu.insts_retired", insts, "count"},
        {"cpu.boundary_wait_cycles", d(c.boundaryWait), "cycles"},
        {"cpu.sb_full_cycles", d(c.sbFull), "cycles"},
        {"cpu.feb_full_cycles", d(c.febFull), "cycles"},
        {"cpu.lock_blocked_cycles", d(c.lockBlocked), "cycles"},
        {"compiler.boundaries", d(setup.counts.compileBoundaries), "count"},
        {"compiler.checkpoint_stores", d(setup.counts.checkpointStores),
         "count"},
        {"mem.l1_misses", d(c.l1Misses), "count"},
        {"mem.wpq_flushed_entries", d(c.wpqFlushed), "count"},
        {"mem.wpq_fallback_per_10k_insts",
         insts > 0 ? 1e4 * d(c.wpqFallback) / insts : 0.0, "1/10k"},
        {"mem.wpq_max_occupancy", d(c.wpqMaxOcc), "entries"},
        {"mem.regions_committed", d(c.regionsCommitted), "count"},
        {"noc.messages", d(c.nocMessages), "count"},
        {"noc.msgs_per_boundary",
         c.boundaries ? d(c.nocMessages) / d(c.boundaries) : 0.0, "ratio"},
        {"noc.bcast_retries", d(c.bcastRetries), "count"},
        {"noc.bcast_lat_max_cycles", c.bcastLatMax, "cycles"},
        {"fault.recovered_degraded", d(c.recoveredDegraded), "count"},
        {"fault.unrecoverable", d(c.unrecoverable), "count"},
        {"trace.events", d(setup.counts.traceEvents), "count"},
    };
}

const char *const kLayers[] = {
    "workloads.generate", "serve.build", "compiler.compile",
    "core.construct",     "core.run",    "core.crash",
    "core.recover",       "core.probe",  "pds.check",
    "serve.fold",
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string reportPath, spansPath;
};

[[noreturn]] void
usage(const char *prog)
{
    std::cerr << "usage: " << prog
              << " --workload full_runs|crash_recover --seed N"
                 " --seconds S --trace 0|1 [--report FILE] [--spans FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage(argv[0]);
            a.trace = v == "1";
        } else if (k == "--report") {
            a.reportPath = v;
        } else if (k == "--spans") {
            a.spansPath = v;
        } else {
            usage(argv[0]);
        }
        if (end && *end)
            usage(argv[0]);
    }
    if (a.workload.empty() || !(a.seconds > 0))
        usage(argv[0]);
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "full_runs")
        return std::make_unique<FullRunsWorkload>(a.seed);
    if (a.workload == "crash_recover")
        return std::make_unique<CrashRecoverWorkload>(a.seed);
    std::cerr << "unknown workload '" << a.workload << "'\n";
    std::exit(2);
}

/** The rounds of one phase of a run. */
struct Phase
{
    std::vector<Tally> rounds;

    /**
     * Host ms of each point, the median of its rounds. The shared host
     * runs in a slow state most of the time and only now and then in a
     * fast one, so the fastest of a few repeats flips between the two
     * from run to run; the median stays in the common state.
     */
    std::vector<double>
    pointMs() const
    {
        std::vector<double> out(rounds.front().pointSeconds.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            std::vector<double> ms;
            for (const Tally &t : rounds)
                ms.push_back(1e3 * t.pointSeconds[i]);
            out[i] = percentile(std::move(ms), 0.5);
        }
        return out;
    }

    /**
     * Geomean over points of simulated cycles per host second. Per-point
     * rates keep a seed that lengthens one point (a heavy retry tail, a
     * late crash) from reweighting the aggregate.
     */
    double
    cyclesPerSecond() const
    {
        std::vector<double> ms = pointMs(), cps;
        const Tally &first = rounds.front();
        for (std::size_t i = 0; i < ms.size(); ++i) {
            if (first.pointCycles[i])
                cps.push_back(1e3 * static_cast<double>(first.pointCycles[i]) /
                              ms[i]);
        }
        return geomean(cps);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    setLogQuiet(true);
    auto wl = makeWorkload(args);
    const Workload::Budget budget = wl->budget();
    const unsigned rounds = std::max(
        1u, static_cast<unsigned>(args.seconds / budget.roundSeconds));

    // Each round runs on the products of the latest set-up; set-ups are
    // deterministic, so every round repeats the same work.
    std::vector<double> setupSeconds;
    Tally setup;
    unsigned attempted = 0, failed = 0;
    auto setUp = [&] {
        setup = Tally{};
        auto t0 = Clock::now();
        timed("setup", [&] { wl->setup(setup); });
        setupSeconds.push_back(secondsSince(t0));
        attempted += setup.attempted;
        failed += setup.failed;
    };
    // @p setups set-ups are spread evenly between the rounds, at least one
    // before the first: the host's speed shifts within a run, and setup_s
    // should be the median over the whole run, not over its first second.
    auto runRounds = [&](unsigned n, unsigned setups) {
        Phase ph;
        for (unsigned i = 0; i < n; ++i) {
            for (unsigned k = (setups * i + n - 1) / n;
                 k < (setups * (i + 1) + n - 1) / n; ++k)
                setUp();
            Tally t;
            timed("round", [&] { wl->round(t); });
            ph.rounds.push_back(std::move(t));
        }
        return ph;
    };

    Phase plain, traced;
    if (!args.trace) {
        plain = runRounds(rounds, budget.setups);
    } else {
        // One traced set-up, then half the rounds untraced, half traced.
        gTracer.setEnabled(true);
        setUp();
        gTracer.setEnabled(false);
        const unsigned half = std::max(1u, rounds / 2);
        plain = runRounds(half, 0);
        gTracer.setEnabled(true);
        traced = runRounds(half, 0);
        gTracer.setEnabled(false);
    }

    for (const Phase *ph : {&plain, &traced}) {
        for (const Tally &t : ph->rounds) {
            attempted += t.attempted;
            failed += t.failed;
        }
    }
    std::vector<double> pointMs = plain.pointMs();
    std::size_t samples = plain.rounds.size() * pointMs.size();
    const Tally &first = plain.rounds.front();
    std::vector<Metric> det = deterministicMetrics(setup, first);
    // Later rounds must repeat the first one exactly.
    for (const Phase *ph : {&plain, &traced}) {
        for (const Tally &t : ph->rounds) {
            if (t.counts.simCycles != first.counts.simCycles ||
                t.counts.insts != first.counts.insts) {
                std::cerr << "check failed: round work counts differ "
                             "between rounds of one run\n";
                ++failed;
            }
        }
    }

    double okFrac = attempted ? 1.0 - static_cast<double>(failed) /
                                          static_cast<double>(attempted)
                              : 0.0;
    std::vector<Metric> e2e = {
        {"sim_cycles_per_s", plain.cyclesPerSecond(), "cycles/s"},
        {"setup_s", percentile(setupSeconds, 0.5), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_frac", okFrac, "ratio"},
        {"point_ms_p50", percentile(pointMs, 0.5), "ms"},
        {"point_ms_p95", percentile(pointMs, 0.95), "ms"},
        det[0],
        det[1],
    };

    std::vector<Metric> layers;
    if (args.trace) {
        // Self seconds per layer for one set-up plus one round.
        auto setupSelf = gTracer.selfSeconds("setup");
        auto roundSelf = gTracer.selfSeconds("round");
        double nRounds = static_cast<double>(traced.rounds.size());
        for (const char *layer : kLayers) {
            double s = setupSelf[layer] + roundSelf[layer] / nRounds;
            layers.push_back({std::string(layer) + "_s", s, "s"});
        }
        layers.push_back(
            {"bench.self_s",
             setupSelf["setup"] + setupSelf["point"] +
                 (roundSelf["round"] + roundSelf["point"]) / nRounds,
             "s"});
        for (std::size_t i = 2; i < det.size(); ++i)
            layers.push_back(det[i]);
        double untracedCps = plain.cyclesPerSecond();
        layers.push_back(
            {"trace.overhead_pct",
             untracedCps > 0
                 ? 100.0 * (untracedCps - traced.cyclesPerSecond()) /
                       untracedCps
                 : 0.0,
             "%"});
        layers.push_back({"bench.point_samples",
                          static_cast<double>(samples), "count"});
        if (!args.spansPath.empty())
            gTracer.write(args.spansPath);
    }

    std::cerr << args.workload << " seed " << args.seed << ": "
              << plain.rounds.size() << " round(s) of "
              << pointMs.size() << " point(s), " << samples
              << " point samples, " << attempted << " attempted, "
              << failed << " failed\n";

    if (!args.reportPath.empty()) {
        std::ofstream rep(args.reportPath);
        std::vector<Metric> all = e2e;
        all.insert(all.end(), det.begin() + 2, det.end());
        all.insert(all.end(), layers.begin(), layers.end());
        rep << "{\"schema\": \"lwsp-perfbench-report-v1\", \"workload\": \""
            << args.workload << "\", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"rounds\": " << plain.rounds.size() + traced.rounds.size()
            << ", \"point_samples\": " << samples
            << ", \"attempted\": " << attempted << ", \"failed\": "
            << failed << ",\n \"deterministic\": " << metricsJson(det)
            << ",\n \"metrics\": " << metricsJson(all)
            << ",\n \"first_round\": [";
        for (std::size_t i = 0; i < first.pointNames.size(); ++i) {
            rep << (i ? ",\n  " : "\n  ") << "{\"point\": \""
                << first.pointNames[i] << "\", \"cycles\": "
                << first.pointCycles[i] << ", \"median_ms\": "
                << number(pointMs[i]) << "}";
        }
        rep << "]}\n";
    }

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": "
              << metricsJson(args.trace ? layers : e2e) << "}" << std::endl;
    return 0;
}
