/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every bench accepts:
 *   --quick           run a representative subset of apps (fast smoke mode)
 *   --csv FILE        additionally dump the table as CSV
 *   --jobs N          sweep worker threads (0/default = all hardware threads)
 *   --sweep-json FILE write the sweep's wall-clock/throughput telemetry
 *   --report FILE     write a versioned JSON run report (one record per
 *                     distinct simulation point, full RunResult)
 *   --engine E        simulator core: event (default) or cycle. Tables
 *                     and CSVs are bit-identical either way; the flag
 *                     exists for A/B verification and perf comparison.
 *
 * Every point is a harness::RunSpec whose workload is a program
 * source: a paper profile or a pds/serve spec string. Benches that
 * need only cycles build a flat RunSpec list (row-major over the table)
 * and hand it to a SweepExecutor (runAll/slowdowns). Benches that crash,
 * trace or fault-inject a point sweep their own grid through
 * SweepExecutor::forEach, take (cfg, prog) from harness::prepareRun,
 * and return harness::recordRun. Results come back indexed by input
 * order, so tables and CSVs are byte-identical at any job count. Every
 * bench ends in finish().
 */

#ifndef LWSP_BENCH_BENCH_UTIL_HH
#define LWSP_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "workloads/profile.hh"

namespace lwsp {
namespace bench {

struct BenchArgs
{
    bool quick = false;
    std::string csvPath;
    unsigned jobs = 0;          ///< 0 = hardware concurrency
    std::string sweepJsonPath;  ///< empty = no telemetry file
    std::string reportPath;     ///< empty = no run report
    std::string benchName;      ///< argv[0] basename, for telemetry
};

/** Print the shared flag synopsis and exit 2 (bad command line). */
[[noreturn]] inline void
usage(const char *prog)
{
    std::cerr << "usage: " << prog
              << " [--quick] [--csv FILE] [--jobs N]"
                 " [--sweep-json FILE] [--report FILE]"
                 " [--engine event|cycle]\n";
    std::exit(2);
}

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    std::string prog = argv[0];
    std::size_t slash = prog.find_last_of('/');
    args.benchName =
        slash == std::string::npos ? prog : prog.substr(slash + 1);
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--quick") {
            args.quick = true;
        } else if (a == "--csv" && i + 1 < argc) {
            args.csvPath = argv[++i];
        } else if (a == "--jobs" && i + 1 < argc) {
            // Plain decimal that fits an unsigned; 0 = all cores.
            if (!parseDecimal(argv[++i], args.jobs))
                usage(argv[0]);
        } else if (a == "--sweep-json" && i + 1 < argc) {
            args.sweepJsonPath = argv[++i];
        } else if (a == "--report" && i + 1 < argc) {
            args.reportPath = argv[++i];
        } else if (a == "--engine" && i + 1 < argc) {
            std::string e = argv[++i];
            if (e == "event") {
                harness::setDefaultSimEngine(SimEngine::Event);
            } else if (e == "cycle") {
                harness::setDefaultSimEngine(SimEngine::Cycle);
            } else {
                std::cerr << "unknown engine '" << e
                          << "' (want event|cycle)\n";
                std::exit(2);
            }
        } else {
            usage(argv[0]);
        }
    }
    setLogQuiet(true);
    return args;
}

/** The executor every bench sweeps through (honours --jobs). */
inline harness::SweepExecutor
makeExecutor(const BenchArgs &args)
{
    return harness::SweepExecutor(args.jobs);
}

/** The apps to sweep: all 38, or one representative per suite in quick
 *  mode. */
inline std::vector<const workloads::WorkloadProfile *>
selectedProfiles(const BenchArgs &args)
{
    std::vector<const workloads::WorkloadProfile *> out;
    if (!args.quick) {
        for (const auto &p : workloads::paperProfiles())
            out.push_back(&p);
        return out;
    }
    std::vector<std::string> picks = {"lbm",  "xz", "intruder",
                                      "is",   "radix", "rb"};
    for (const auto &name : picks)
        out.push_back(&workloads::profileByName(name));
    return out;
}

/**
 * Print the table, then write what the flags asked for: @p csv (the
 * bench's CSV text; benches with columns the table lacks build their
 * own), the sweep telemetry and the run report of every point @p exec
 * swept.
 */
inline void
finish(const harness::ResultTable &table, const std::string &csv,
       const BenchArgs &args, const harness::SweepExecutor &exec,
       bool per_app = true)
{
    if (per_app)
        table.print(std::cout);
    else
        table.printSuiteSummary(std::cout);
    if (!args.csvPath.empty()) {
        std::ofstream(args.csvPath) << csv;
        std::cout << "csv written to " << args.csvPath << '\n';
    }
    if (!args.sweepJsonPath.empty()) {
        harness::writeSweepJson(args.sweepJsonPath, args.benchName,
                                exec.totalStats());
    }
    if (!args.reportPath.empty()) {
        harness::writeRunReports(args.reportPath, args.benchName,
                                 exec.runRecords(), exec.totalStats());
        std::cout << "run report written to " << args.reportPath << '\n';
    }
}

/** finish() with the table's own CSV. */
inline void
finish(const harness::ResultTable &table, const BenchArgs &args,
       const harness::SweepExecutor &exec, bool per_app = true)
{
    std::ostringstream csv;
    table.writeCsv(csv);
    finish(table, csv.str(), args, exec, per_app);
}

} // namespace bench
} // namespace lwsp

#endif // LWSP_BENCH_BENCH_UTIL_HH
