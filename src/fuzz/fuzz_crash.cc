/**
 * @file
 * Crash-consistency fuzzing driver.
 *
 *   fuzz_crash [--seeds N] [--base-seed S]
 *              [--mode wl|ir|pds|serve|mixed|storm]
 *              [--crash-points N] [--jobs N] [--no-double] [--no-shrink]
 *              [--fault] [--faults] [--storm] [--replay SPEC]
 *              [--trace-out FILE] [--recovery-matrix] [--matrix-step N]
 *              [--engine event|cycle]
 *
 * Default: run N seeded campaigns (half workload-sourced, half
 * IR-sourced with --mode mixed), each injecting single and double power
 * failures at adversarially mined cycles, differentially checking every
 * recovery against a crash-free golden run with the LRPO invariant
 * oracles live. On any failure the case is shrunk and its replay spec
 * printed as `REPRODUCER: lwsp-fuzz:v1:...`; rerun exactly that case
 * with `fuzz_crash --replay '<spec>'`. Exit status 0 = all passed.
 *
 * --mode pds runs the persistent-data-structure programs (src/pds)
 * instead of random programs, rotating structure/size/op-mix across
 * the seed set. On top of the golden-state diff, every run is checked
 * by the structure-specific oracles: a semantic walk of the final image
 * (live log multiset, hash chain/bucket integrity, allocator leak and
 * double-free accounting) and, on unfaulted victims, a store-stream
 * prefix check of the crash image against the PdsModel shadow replay.
 * Composes with --faults.
 *
 * --mode serve crash-tests the open-loop service workloads (src/serve)
 * mid-request-stream: each seed generates a Zipf/profile-mixed request
 * tape (rotating varnish/horde profile and table size), lowers it onto
 * the pds hash table, and runs the same mined-crash campaign with the
 * structure oracles replaying the lowered op tape. Composes with
 * --faults.
 *
 * --fault arms the MC's test-only early-release fault on victim runs so
 * the oracle/shrink/replay machinery can be demonstrated on a known bug.
 *
 * --storm additionally runs every second mined point under a seeded
 * fault::FailureSchedule (fault/storm.hh): the initial power failure is
 * followed by drain interruptions, recovery re-entries and post-recovery
 * exec failures, exercising the re-entrancy of the §IV-F drain and of
 * recoverChecked. Composes with --mode pds/serve and --faults; failing
 * schedules shrink event-by-event and ride replay specs as a `storm=`
 * token. `--mode storm` is shorthand for `--mode mixed --storm`.
 *
 * --recovery-matrix runs the crash-at-every-cycle-of-recovery matrix
 * (fuzz/recovery_matrix.hh) instead of seeded campaigns: every scheme x
 * {log, hash, alloc, serve} case plus a builtin workload case is crashed
 * once, recovered, and the recovery run is itself power-failed at every
 * --matrix-step-th cycle (default 1 = exhaustive); each interrupted
 * recovery must recover again and converge to the same final state.
 * --engine selects the clock driver for matrix runs (A/B determinism).
 *
 * --faults runs a hardware fault-injection campaign instead: each seed
 * additionally arms one fault-axis group (broadcast loss / delay+dup /
 * pinned loss / WPQ damage / checkpoint damage+stall / PM poison+silent
 * flip, round-robin) on its victim runs, and recovery goes through the
 * hardened System::recoverChecked path. A detected-unrecoverable
 * verdict passes — the contract is "never silently corrupt", and the
 * summary reports the recovered / degraded / unrecoverable tallies.
 *
 * Exit status: 0 all passed, 1 mismatch/oracle failure, 2 usage,
 * 3 passed but with at least one detected-unrecoverable verdict
 * (replay path: the injected fault was detected and reported),
 * 4 static violation (replay path only: the case's compile fails the
 * static WSP-invariant checker — src/analysis — so the compiler, not
 * the crash machinery, is at fault; the checker's report is printed
 * and no simulation runs).
 *
 * --trace-out FILE (replay path only) re-runs the victim with the
 * telemetry sink armed and writes its event trace in the lwsp binary
 * format; inspect with `lwsp_trace info/dump` or convert to Perfetto
 * JSON with `lwsp_trace convert`.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "fuzz/campaign.hh"
#include "fuzz/recovery_matrix.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "trace/export.hh"

using namespace lwsp;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--seeds N] [--base-seed S]\n"
        "          [--mode wl|ir|pds|serve|mixed|storm]\n"
        "          [--crash-points N] [--jobs N] [--no-double]\n"
        "          [--no-shrink] [--fault] [--faults] [--storm]\n"
        "          [--replay SPEC] [--trace-out FILE]\n"
        "          [--recovery-matrix] [--matrix-step N]\n"
        "          [--engine event|cycle]\n",
        argv0);
    return 2;
}

/**
 * Arm one hardware fault-axis group on @p spec (round-robin by campaign
 * index). The injector seed is pinned to the case seed so the spec
 * string round-trips to the exact same injections.
 */
fuzz::CaseSpec
withFaultAxis(fuzz::CaseSpec spec, unsigned idx)
{
    fault::FaultConfig fc;
    fc.seed = spec.seed;
    switch (idx % 6) {
      case 0:
        fc.bcastLossPm = 150;
        break;
      case 1:
        fc.bcastDelayPm = 200;
        fc.bcastDelayCycles = 240;
        fc.bcastDupPm = 100;
        break;
      case 2:
        fc.bcastLossPinTick = 1500;
        break;
      case 3:
        fc.wpqBitFlip = true;
        fc.wpqTear = true;
        break;
      case 4:
        fc.ckptEntryDamage = true;
        fc.mcStallIters = 2;
        break;
      case 5:
        fc.pmPoisonWords = 2;
        fc.silentCkptFlip = true;
        break;
    }
    spec.faults = fc;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned seeds = 25;
    std::uint64_t base_seed = 1;
    std::string mode = "mixed";
    unsigned jobs = 0;
    std::string replay_spec;
    std::string trace_out;
    fuzz::CampaignOptions opt;
    bool fault = false;
    bool hw_faults = false;
    bool matrix = false;
    Tick matrix_step = 1;

    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *name) {
            if (std::strcmp(argv[i], name) != 0)
                return static_cast<const char *>(nullptr);
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", name);
                std::exit(2);
            }
            return static_cast<const char *>(argv[++i]);
        };
        // Counts are plain decimal: a mistyped value is a usage error,
        // never a silent 0 (a vacuous zero-seed campaign passes).
        auto number = [&](const char *v, auto &out) {
            if (!parseDecimal(v, out))
                std::exit(usage(argv[0]));
        };
        if (const char *v = arg("--seeds")) {
            number(v, seeds);
        } else if (const char *v = arg("--base-seed")) {
            number(v, base_seed);
        } else if (const char *v = arg("--mode")) {
            mode = v;
        } else if (const char *v = arg("--crash-points")) {
            number(v, opt.minCrashPoints);
        } else if (const char *v = arg("--jobs")) {
            number(v, jobs);
        } else if (const char *v = arg("--replay")) {
            replay_spec = v;
        } else if (const char *v = arg("--trace-out")) {
            trace_out = v;
        } else if (const char *v = arg("--matrix-step")) {
            number(v, matrix_step);
            if (matrix_step == 0)
                matrix_step = 1;
        } else if (const char *v = arg("--engine")) {
            if (std::strcmp(v, "event") == 0) {
                harness::setDefaultSimEngine(SimEngine::Event);
            } else if (std::strcmp(v, "cycle") == 0) {
                harness::setDefaultSimEngine(SimEngine::Cycle);
            } else {
                return usage(argv[0]);
            }
        } else if (std::strcmp(argv[i], "--recovery-matrix") == 0) {
            matrix = true;
        } else if (std::strcmp(argv[i], "--storm") == 0) {
            opt.stormCrash = true;
        } else if (std::strcmp(argv[i], "--no-double") == 0) {
            opt.doubleCrash = false;
        } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
            opt.shrinkOnFailure = false;
        } else if (std::strcmp(argv[i], "--fault") == 0) {
            fault = true;
        } else if (std::strcmp(argv[i], "--faults") == 0) {
            hw_faults = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (mode == "storm") {
        // Shorthand: the mixed campaign with storm injections on.
        mode = "mixed";
        opt.stormCrash = true;
    }
    if (mode != "wl" && mode != "ir" && mode != "mixed" &&
        mode != "pds" && mode != "serve")
        return usage(argv[0]);

    setLogQuiet(true);
    auto t0 = std::chrono::steady_clock::now();

    if (matrix) {
        auto cases = fuzz::recoveryMatrixCases();
        fuzz::MatrixOptions mopt;
        mopt.step = matrix_step;
        mopt.engine = harness::defaultSimEngine();
        std::vector<fuzz::MatrixCaseResult> mres(cases.size());
        harness::parallelFor(jobs, cases.size(), [&](std::size_t i) {
            mres[i] = fuzz::runRecoveryMatrixCase(cases[i], mopt);
        });
        unsigned mfailed = 0, mpoints = 0, mruns = 0;
        for (const auto &r : mres) {
            mpoints += r.pointsTried;
            mruns += r.runsExecuted;
            std::printf("%-18s %s  recovery=%llu cy, %u points, "
                        "%u recovered + %u degraded\n",
                        r.name.c_str(), r.passed ? "PASS" : "FAIL",
                        static_cast<unsigned long long>(
                            r.recoveryCycles),
                        r.pointsTried, r.recoveredExact,
                        r.recoveredDegraded);
            if (!r.passed) {
                ++mfailed;
                std::printf("  %s\n", r.failure.c_str());
            }
        }
        double msecs = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        std::printf("recovery-matrix: %zu cases, %u crash-in-recovery "
                    "points (step %llu), %u runs, %u failures, %.1fs\n",
                    cases.size(), mpoints,
                    static_cast<unsigned long long>(matrix_step), mruns,
                    mfailed, msecs);
        return mfailed ? 1 : 0;
    }

    if (!replay_spec.empty()) {
        fuzz::CaseSpec spec;
        std::string err;
        if (!fuzz::CaseSpec::parse(replay_spec, spec, err)) {
            std::fprintf(stderr, "bad replay spec: %s\n", err.c_str());
            return 2;
        }
        if (spec.mode == fuzz::CrashMode::None && !trace_out.empty()) {
            std::fprintf(stderr, "--trace-out needs a crash-mode replay "
                                 "spec (mode=single/dbl-*)\n");
            return 2;
        }
        // Gate the replay on the static WSP-invariant checker: if the
        // compiler already emitted an unsafe partition for this case,
        // report that directly — the dynamic crash hunt would only be
        // chasing a symptom of it.
        auto sc = fuzz::staticCheck(spec);
        if (!sc.ok) {
            std::printf("replay %s: STATIC-VIOLATION [%s]\n%s\n",
                        replay_spec.c_str(), sc.summary.c_str(),
                        sc.report.c_str());
            return 4;
        }
        opt.captureTrace = !trace_out.empty();
        auto res = fuzz::runCampaign(spec, opt);
        std::printf("replay %s: %s (%u runs, %llu oracle checks)\n",
                    replay_spec.c_str(),
                    res.passed ? "PASSED" : "FAILED",
                    res.runsExecuted,
                    static_cast<unsigned long long>(res.oracleChecks));
        if (res.recoveredExact + res.recoveredDegraded +
                res.detectedUnrecoverable >
            0) {
            std::printf("  verdicts: %u recovered, %u degraded, "
                        "%u unrecoverable\n",
                        res.recoveredExact, res.recoveredDegraded,
                        res.detectedUnrecoverable);
        }
        if (!res.passed) {
            std::printf("  %s\n", res.failure.c_str());
            std::printf("REPRODUCER: %s\n",
                        res.reproducer.toString().c_str());
        }
        if (!trace_out.empty()) {
            if (!trace::writeBinaryFile(trace_out, res.victimTrace)) {
                std::fprintf(stderr, "trace-out failed: cannot write %s\n",
                             trace_out.c_str());
                return 2;
            }
            std::printf("victim trace (%zu events) written to %s\n",
                        res.victimTrace.size(), trace_out.c_str());
        }
        if (!res.passed)
            return 1;
        return res.detectedUnrecoverable > 0 ? 3 : 0;
    }
    if (!trace_out.empty()) {
        std::fprintf(stderr, "--trace-out requires --replay\n");
        return 2;
    }

    std::vector<fuzz::CampaignResult> results(seeds);
    std::vector<fuzz::CaseSpec> specs(seeds);
    for (unsigned i = 0; i < seeds; ++i) {
        fuzz::CaseSpec spec;
        spec.seed = base_seed + i;
        spec.fault = fault;
        if (mode == "pds") {
            // Rotate structure / size / mix across the campaign set so
            // a small --seeds still covers all three structures.
            spec.source = fuzz::CaseSpec::Source::Pds;
            spec.pds.kind = static_cast<pds::Kind>(i % 3);
            spec.pds.sizeClass = (i / 3) % 3;
            spec.pds.mix = (i / 9) % 3;
            spec.pds.numOps = 120;
            spec.pds.seed = spec.seed;
        } else if (mode == "serve") {
            // Rotate profile / table size so a small --seeds covers
            // both service mixes and both hash geometries.
            spec.source = fuzz::CaseSpec::Source::Serve;
            spec.serve.profile = (i % 2) ? serve::Profile::Horde
                                         : serve::Profile::Varnish;
            spec.serve.sizeClass = (i / 2) % 2;
            spec.serve.numRequests = 96;
            spec.serve.seed = spec.seed;
        } else {
            bool use_ir =
                (mode == "ir") || (mode == "mixed" && i % 2 == 1);
            spec.source = use_ir ? fuzz::CaseSpec::Source::Ir
                                 : fuzz::CaseSpec::Source::Workload;
        }
        if (hw_faults)
            spec = withFaultAxis(spec, i);
        specs[i] = spec;
    }

    // Campaigns are independent: fan them out across worker threads
    // (each campaign's internal runs stay serial for determinism).
    harness::parallelFor(jobs, seeds, [&](std::size_t i) {
        results[i] = fuzz::runCampaign(specs[i], opt);
    });

    unsigned failed = 0, points = 0, runs = 0;
    unsigned exact = 0, degraded = 0, unrec = 0, survived = 0;
    std::uint64_t checks = 0;
    for (unsigned i = 0; i < seeds; ++i) {
        const auto &r = results[i];
        points += r.pointsTried;
        runs += r.runsExecuted;
        checks += r.oracleChecks;
        exact += r.recoveredExact;
        degraded += r.recoveredDegraded;
        unrec += r.detectedUnrecoverable;
        survived = std::max(survived, r.failuresSurvived);
        if (r.passed)
            continue;
        ++failed;
        std::printf("FAIL %s\n  %s\n",
                    specs[i].toString().c_str(), r.failure.c_str());
        std::printf("REPRODUCER: %s%s\n",
                    r.reproducer.toString().c_str(),
                    r.shrunk ? "  (shrunk)" : "");
    }

    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    std::printf("fuzz_crash: %u campaigns, %u crash points, %u runs, "
                "%llu oracle checks, %u failures, %.1fs\n",
                seeds, points, runs,
                static_cast<unsigned long long>(checks), failed, secs);
    if (opt.stormCrash) {
        std::printf("storm: up to %u consecutive power failures "
                    "survived by a single point\n",
                    survived);
    }
    if (hw_faults) {
        // Every fault-armed point is classified; a completed recovery
        // that mismatched golden counts as a failure above — so with
        // 0 failures every injected fault was masked, degraded or
        // reported, never silently absorbed.
        std::printf("fault verdicts: %u recovered, %u degraded, "
                    "%u unrecoverable; silent-corruption failures: %u\n",
                    exact, degraded, unrec, failed);
    }
    return failed ? 1 : 0;
}
