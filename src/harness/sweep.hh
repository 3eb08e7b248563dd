/**
 * @file
 * Parallel experiment-sweep engine.
 *
 * Every figure/table reproduction is a sweep over independent
 * (workload x scheme x config) simulation points. SweepExecutor fans a
 * spec list (runAll/slowdowns) or a bench's own point grid (forEach)
 * out across worker threads with a shared claim counter
 * (work-stealing at point granularity: whichever worker frees up first
 * takes the next unclaimed index), while results land in a vector slot
 * per input index — so the output order, and therefore every table, CSV
 * byte and geomean, is identical to a serial sweep regardless of job
 * count or scheduling. Points themselves are deterministic: each
 * simulation seeds its RNGs from its own spec (no global RNG, no shared
 * mutable state beyond the Runner's mutex-guarded memo), which is what
 * makes "parallel == serial, bit for bit" a contract rather than a hope.
 *
 * The executor also keeps wall-clock/throughput telemetry accumulated
 * across the binary's lifetime, emitted as a BENCH_sweep.json record to
 * track the repo's performance trajectory.
 */

#ifndef LWSP_HARNESS_SWEEP_HH
#define LWSP_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"

namespace lwsp {
namespace harness {

/**
 * Run @p fn(i) for every i in [0, n) on up to @p jobs threads. Order of
 * execution is unspecified; the call returns once every index finished.
 * The first exception thrown by any index is rethrown to the caller
 * (after all workers have joined). jobs <= 1 degenerates to a plain
 * serial loop with no thread machinery.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** Wall-clock/throughput instrumentation for one or more sweeps. */
struct SweepStats
{
    unsigned jobs = 1;
    std::size_t points = 0;            ///< simulations (not memo hits)
    double wallSeconds = 0.0;
    std::uint64_t simulatedCycles = 0; ///< sum over simulated points

    double
    pointsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(points) / wallSeconds
                   : 0.0;
    }

    /** Simulator throughput: simulated cycles retired per wall second. */
    double
    cyclesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(simulatedCycles) / wallSeconds
                   : 0.0;
    }
};

/** One executed experiment point, retained for run-report emission. */
struct RunRecord
{
    RunSpec spec;
    RunOutcome outcome;
    /** Bench-specific numbers, written as the record's flat "metrics"
     *  name -> number object in insertion order. */
    std::vector<std::pair<std::string, double>> metrics;
    /** Every cycle the point simulated (golden, victim and probe runs
     *  alike); SweepStats::simulatedCycles sums it. */
    std::uint64_t simulatedCycles = 0;
    /** False when the Runner memo served the point: it then counts as
     *  no point and no cycles in SweepStats. */
    bool simulated = true;
};

/** The record of @p spec, prepared as @p run, whose reported run ended
 *  in @p res (simulatedCycles starts at res.cycles). */
RunRecord recordRun(const RunSpec &spec, const PreparedRun &run,
                    const core::RunResult &res);

class SweepExecutor
{
  public:
    /** @param jobs worker threads; 0 = std::thread::hardware_concurrency */
    explicit SweepExecutor(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * The one sweep path: @p point(i) simulates point i (into the
     * caller's own slot, for what the table needs beyond the record)
     * and returns its RunRecord. The executor times the sweep, counts
     * the records' points and simulatedCycles and appends them to
     * runRecords() in index order, whatever the job count.
     */
    void forEach(std::size_t n,
                 const std::function<RunRecord(std::size_t)> &point);

    /**
     * Execute every spec through @p runner. Result i corresponds to
     * specs[i]; bit-identical to calling runner.run(specs[i]) in order.
     */
    std::vector<RunOutcome> runAll(Runner &runner,
                                   const std::vector<RunSpec> &specs);

    /**
     * Slowdown-vs-baseline for every spec (deterministic order). The
     * Baseline runs are claimed as sweep points of their own first, so
     * distinct baselines compute in parallel instead of serializing
     * behind the memo of whichever scheme point asked first.
     */
    std::vector<double> slowdowns(Runner &runner,
                                  const std::vector<RunSpec> &specs);

    /** Telemetry accumulated over every sweep this executor ran. */
    const SweepStats &totalStats() const { return total_; }

    /**
     * Every point executed by this executor (baselines included), in
     * first-execution order; Runner-backed points are deduplicated by
     * canonical spec key, since the memo simulates each key once.
     */
    const std::vector<RunRecord> &runRecords() const { return records_; }

  private:
    std::vector<RunRecord>
    sweep(std::size_t n, const std::function<RunRecord(std::size_t)> &point);
    void keepOnce(std::vector<RunRecord> &&records);

    unsigned jobs_;
    SweepStats total_;
    std::vector<RunRecord> records_;
    std::set<std::string> recordedKeys_;
};

/**
 * Write one BENCH_sweep.json record (single-line JSON object so shell
 * aggregation in scripts/bench_all.sh stays trivial).
 */
void writeSweepJson(const std::string &path, const std::string &bench,
                    const SweepStats &stats);

/**
 * Versioned machine-readable run report: one record per simulation
 * point with its canonical spec key, resolved configuration axes,
 * compile stats and the full RunResult, plus a cross-run
 * cycles-percentiles footer. Schema identifier "lwsp-run-report-v1.3"
 * (minor bumps are additive: v1.1 added the percentiles footer, v1.2
 * the per-run recovery lineage — "recovery_outcome", "none" on fresh
 * boots, and "failures_survived" — v1.3 "scheme_label" (schemeLabel of
 * the record's spec) and the optional flat "metrics" object); consumers
 * must reject unknown major versions.
 */
void writeRunReports(const std::string &path, const std::string &bench,
                     const std::vector<RunRecord> &records,
                     const SweepStats &stats);

} // namespace harness
} // namespace lwsp

#endif // LWSP_HARNESS_SWEEP_HH
