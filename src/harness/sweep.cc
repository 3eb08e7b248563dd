#include "sweep.hh"

#include "common/stats.hh"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <thread>

namespace lwsp {
namespace harness {

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, n));

    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&]() {
        while (true) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

SweepExecutor::SweepExecutor(unsigned jobs)
    : jobs_(jobs ? jobs : std::max(1u, std::thread::hardware_concurrency()))
{
}

std::vector<RunRecord>
SweepExecutor::sweep(std::size_t n,
                     const std::function<RunRecord(std::size_t)> &point)
{
    std::vector<RunRecord> records(n);
    auto start = std::chrono::steady_clock::now();
    parallelFor(jobs_, n, [&](std::size_t i) { records[i] = point(i); });
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    total_.jobs = jobs_;
    total_.wallSeconds += secs;
    for (const auto &rec : records) {
        if (rec.simulated) {
            ++total_.points;
            total_.simulatedCycles += rec.simulatedCycles;
        }
    }
    return records;
}

void
SweepExecutor::forEach(std::size_t n,
                       const std::function<RunRecord(std::size_t)> &point)
{
    for (auto &rec : sweep(n, point))
        records_.push_back(std::move(rec));
}

RunRecord
recordRun(const RunSpec &spec, const PreparedRun &run,
          const core::RunResult &res)
{
    RunRecord rec;
    rec.spec = spec;
    rec.outcome.result = res;
    rec.outcome.compileStats = run.prog.stats;
    rec.outcome.threads = run.threads;
    rec.simulatedCycles = res.cycles;
    return rec;
}

namespace {

RunRecord
runnerRecord(Runner &runner, const RunSpec &spec)
{
    RunRecord rec;
    rec.spec = spec;
    rec.outcome = runner.run(spec, &rec.simulated);
    rec.simulatedCycles = rec.outcome.result.cycles;
    return rec;
}

} // namespace

void
SweepExecutor::keepOnce(std::vector<RunRecord> &&records)
{
    // Records arrive in index order, so the report file is independent
    // of worker scheduling; a key the memo already served is one
    // simulation, reported once.
    for (auto &rec : records) {
        if (recordedKeys_.insert(specKey(rec.spec)).second)
            records_.push_back(std::move(rec));
    }
}

std::vector<RunOutcome>
SweepExecutor::runAll(Runner &runner, const std::vector<RunSpec> &specs)
{
    std::vector<RunOutcome> out(specs.size());
    keepOnce(sweep(specs.size(), [&](std::size_t i) {
        RunRecord rec = runnerRecord(runner, specs[i]);
        out[i] = rec.outcome;
        return rec;
    }));
    return out;
}

std::vector<double>
SweepExecutor::slowdowns(Runner &runner, const std::vector<RunSpec> &specs)
{
    // Phase the baselines in as explicit points: the memo dedupes them,
    // and claiming them up front lets distinct baselines simulate
    // concurrently instead of each hiding behind its first scheme point.
    std::vector<RunSpec> all;
    all.reserve(specs.size() * 2);
    for (const auto &s : specs)
        all.push_back(Runner::baselineSpec(s));
    for (const auto &s : specs)
        all.push_back(s);

    std::vector<double> out(specs.size());
    keepOnce(sweep(all.size(), [&](std::size_t i) {
        RunRecord rec = runnerRecord(runner, all[i]);
        if (i >= specs.size()) {
            std::size_t p = i - specs.size();
            Tick base = runner.run(all[p]).result.cycles;
            out[p] = static_cast<double>(rec.outcome.result.cycles) /
                     static_cast<double>(base);
        }
        return rec;
    }));
    return out;
}

void
writeSweepJson(const std::string &path, const std::string &bench,
               const SweepStats &stats)
{
    std::ofstream os(path);
    if (!os) {
        // Not warn(): benches run with setLogQuiet(true), and a silently
        // dropped telemetry file defeats the flag's purpose.
        std::cerr << "error: cannot write sweep telemetry to " << path
                  << '\n';
        return;
    }
    os << "{\"bench\":\"" << bench << "\",\"jobs\":" << stats.jobs
       << ",\"points\":" << stats.points << ",\"wall_seconds\":"
       << stats.wallSeconds << ",\"points_per_second\":"
       << stats.pointsPerSecond() << ",\"simulated_cycles\":"
       << stats.simulatedCycles << ",\"simulated_cycles_per_second\":"
       << stats.cyclesPerSecond() << "}\n";
}

void
writeRunReports(const std::string &path, const std::string &bench,
                const std::vector<RunRecord> &records,
                const SweepStats &stats)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "error: cannot write run report to " << path << '\n';
        return;
    }
    // v1.1: adds the "cycles_percentiles" footer (stats::Percentiles
    // over per-run cycle counts). v1.2: adds per-run "recovery_outcome"
    // ("none" for fresh boots) and "failures_survived". v1.3: adds
    // per-run "scheme_label" and, when the bench sets any, "metrics".
    // Fields are additive; v1 consumers that ignore unknown keys keep
    // working.
    os << "{\"schema\":\"lwsp-run-report-v1.3\",\"bench\":\"" << bench
       << "\",\"jobs\":" << stats.jobs << ",\"wall_seconds\":"
       << stats.wallSeconds << ",\"runs\":[";
    bool first = true;
    for (const auto &rec : records) {
        const auto &r = rec.outcome.result;
        const auto &c = rec.outcome.compileStats;
        os << (first ? "\n" : ",\n") << " {\"key\":\""
           << specKey(rec.spec) << "\",\"workload\":\""
           << rec.spec.workload << "\",\"scheme\":\""
           << core::schemeName(rec.spec.scheme) << "\",\"threads\":"
           << rec.outcome.threads
           << ",\"compile\":{\"input_insts\":" << c.inputInsts
           << ",\"output_insts\":" << c.outputInsts
           << ",\"boundaries\":" << c.boundaries
           << ",\"ckpt_stores\":" << c.checkpointStores
           << ",\"pruned_ckpts\":" << c.prunedCheckpoints
           << ",\"unrolled_loops\":" << c.unrolledLoops
           << ",\"fixpoint_iters\":" << c.fixpointIterations
           << "},\"result\":{\"cycles\":" << r.cycles
           << ",\"completed\":" << (r.completed ? "true" : "false")
           << ",\"insts_retired\":" << r.instsRetired
           << ",\"stores_retired\":" << r.storesRetired
           << ",\"boundaries\":" << r.boundaries
           << ",\"ipc\":" << r.ipc
           << ",\"boundary_wait_cycles\":" << r.boundaryWaitCycles
           << ",\"sb_full_cycles\":" << r.sbFullCycles
           << ",\"feb_full_cycles\":" << r.febFullCycles
           << ",\"snoop_blocked_cycles\":" << r.snoopBlockedCycles
           << ",\"lock_blocked_cycles\":" << r.lockBlockedCycles
           << ",\"l1_hits\":" << r.l1Hits
           << ",\"l1_misses\":" << r.l1Misses
           << ",\"stale_loads\":" << r.staleLoads
           << ",\"buffer_conflicts\":" << r.bufferConflicts
           << ",\"diverted_victims\":" << r.divertedVictims
           << ",\"wpq_load_hits\":" << r.wpqLoadHits
           << ",\"wpq_flushed_entries\":" << r.wpqFlushedEntries
           << ",\"wpq_fallback_flushes\":" << r.wpqFallbackFlushes
           << ",\"wpq_overflow_events\":" << r.wpqOverflowEvents
           << ",\"max_wpq_occupancy\":" << r.maxWpqOccupancy
           << ",\"regions_committed\":" << r.regionsCommitted
           << ",\"avg_region_insts\":" << r.avgRegionInsts
           << ",\"avg_region_stores\":" << r.avgRegionStores
           << "},\"recovery_outcome\":\""
           << (rec.outcome.recovered
                   ? core::recoveryOutcomeName(rec.outcome.recoveryOutcome)
                   : "none")
           << "\",\"failures_survived\":"
           << rec.outcome.failuresSurvived << ",\"scheme_label\":\""
           << schemeLabel(rec.spec) << '"';
        const char *sep = ",\"metrics\":{";
        for (const auto &[name, v] : rec.metrics) {
            // Shortest text that reads back as the value; JSON has no
            // inf/nan.
            char num[32] = "null";
            char *end = std::isfinite(v)
                            ? std::to_chars(num, num + sizeof(num), v).ptr
                            : num + 4;
            os << sep << '"' << name << "\":"
               << std::string_view(num, end - num);
            sep = ",";
        }
        os << (rec.metrics.empty() ? "}" : "}}");
        first = false;
    }
    stats::Percentiles cyc;
    for (const auto &rec : records)
        cyc.sample(static_cast<double>(rec.outcome.result.cycles));
    os << "\n],\"cycles_percentiles\":{\"p50\":" << cyc.p50()
       << ",\"p90\":" << cyc.p90() << ",\"p99\":" << cyc.p99()
       << ",\"p999\":" << cyc.p999() << ",\"max\":" << cyc.max()
       << ",\"count\":" << cyc.count() << "}}\n";
}

} // namespace harness
} // namespace lwsp
