/**
 * @file
 * Figure 22 (extension): service availability under failure storms —
 * MTTR (power-on to first served request) and the useful-work fraction
 * of a stormed service lifetime, per persistence scheme.
 *
 * Each row puts a fig21 service tape (96 requests, Zipf keys) through a
 * seeded fault::FailureSchedule: an initial power failure at 60% of the
 * crash-free run, then the schedule's drain interrupts, recovery
 * re-entries and post-recovery exec failures, played out by
 * core::recoverThroughStorm exactly as the fuzz storm campaign replays
 * them. Every boot is recovered with System::recoverChecked (a
 * fault-free image must never be classified unrecoverable) and probed
 * for MTTR on a throwaway replica —
 * System::recover + runUntilWordChanges on the serve counter, the fig20
 * measurement — while the real lineage machine runs on into the next
 * failure. Availability is goldenCycles / wallCycles: the crash-free
 * run's cycle count over the powered cycles the stormed lifetime needed
 * to finish the same tape (re-execution waste + drain/recovery overhead
 * push it below 1).
 *
 * Points run in Recovery mode (RunSpec::mode), which substitutes the
 * LightWSP gated-commit binary for capri/ppa/cwsp's hardware checkpoints
 * (DESIGN.md §13); pmtx rides its own undo-log path, so a storm that
 * lands mid-undo-replay exercises the rollback's own crash consistency.
 * Output-indexed result slots and per-row seeds keep the CSV
 * byte-identical at any --jobs count and either --engine; quick mode
 * runs the identical (already small) grid.
 */

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>

#include "bench_util.hh"
#include "core/storm_walk.hh"
#include "core/system.hh"
#include "fault/storm.hh"

using namespace lwsp;

namespace {

constexpr serve::Profile kProfiles[] = {serve::Profile::Varnish,
                                        serve::Profile::Horde};
constexpr unsigned kStormEvents = 3; ///< extra failures per lifetime

struct Point
{
    serve::Profile profile = serve::Profile::Varnish;
    harness::RunSpec spec;
    unsigned failures = 0;  ///< power failures actually fired
    unsigned boots = 0;     ///< recoveries (incl. re-entered preambles)
    unsigned mttrSamples = 0;
    Tick mttrSum = 0;
    Tick mttrMax = 0;
    Tick goldenCycles = 0;
    Tick wallCycles = 0;    ///< powered cycles across the whole lifetime
    double mttrMean = 0.0;
    double availability = 0.0;  ///< goldenCycles / wallCycles
};

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);

    std::vector<Point> points;
    for (auto prof : kProfiles) {
        serve::ServeSpec ss;
        ss.profile = prof;
        ss.sizeClass = 1;
        ss.numRequests = 96;
        ss.seed = 11;
        for (auto s : harness::pdsSchemes) {
            Point p;
            p.profile = prof;
            p.spec.workload = ss.toString();
            p.spec.scheme = s;
            p.spec.mode = pds::PdsRunMode::Recovery;
            points.push_back(p);
        }
    }

    auto exec = bench::makeExecutor(args);
    exec.forEach(points.size(), [&](std::size_t i) {
        Point &p = points[i];
        harness::PreparedRun run = harness::prepareRun(p.spec);
        const core::SystemConfig &cfg = run.cfg;
        const compiler::CompiledProgram &prog = run.prog;

        core::System golden(cfg, prog, 1);
        auto gres = golden.run();
        LWSP_ASSERT(gres.completed, "fig22 golden did not complete: ",
                    p.spec.workload);
        p.goldenCycles = gres.cycles;

        // The row's storm is deterministic in its grid index, so the
        // CSV never depends on scheduling.
        auto storm = fault::FailureSchedule::random(
            0xf22u + 7919u * static_cast<std::uint64_t>(i), kStormEvents,
            gres.cycles / 4 + 1);
        std::size_t pos = 0;
        core::System victim(cfg, prog, 1);
        auto vr = victim.runWithFailureStorm(gres.cycles * 6 / 10,
                                             storm.takeDrains(pos));
        LWSP_ASSERT(!vr.completed, "fig22 victim outran its failure: ",
                    p.spec.workload);

        // MTTR probe at every boot: a throwaway replica recovered from
        // the same image, run until the serve counter first moves. Late
        // crashes may leave nothing to serve; then there is no sample
        // (MTTR of a finished tape is not defined).
        core::StormHooks hooks;
        hooks.onBoot = [&](const core::System &crashed,
                           const core::RecoveryResult &verdict, unsigned) {
            LWSP_ASSERT(verdict.outcome !=
                            core::RecoveryOutcome::DetectedUnrecoverable,
                        "fig22 fault-free image unrecoverable: ",
                        verdict.detail);
            auto probeSys = core::System::recover(cfg, prog, 1,
                                                  crashed.pmImage(), {});
            std::uint64_t servedAtBoot =
                probeSys->execImage().read(run.served);
            auto probe = probeSys->runUntilWordChanges(run.served,
                                                       servedAtBoot);
            if (probe.served) {
                ++p.mttrSamples;
                p.mttrSum += probe.serveTick;
                p.mttrMax = std::max(p.mttrMax, probe.serveTick);
            }
        };
        auto walk = core::recoverThroughStorm(victim, cfg, prog, 1, {},
                                              storm, pos, hooks);
        LWSP_ASSERT(walk.error.empty(), "fig22 storm: ", walk.error);
        LWSP_ASSERT(walk.result.completed,
                    "fig22 final boot did not complete");
        p.failures = walk.failures;
        p.boots = walk.boots();
        p.wallCycles = std::accumulate(walk.segmentCycles.begin(),
                                       walk.segmentCycles.end(), vr.cycles);
        std::string err = run.checkSemantics(walk.sys->execImage());
        LWSP_ASSERT(err.empty(), "fig22 semantic check failed: ", err);
        if (p.mttrSamples)
            p.mttrMean = static_cast<double>(p.mttrSum) /
                         static_cast<double>(p.mttrSamples);
        p.availability = static_cast<double>(p.goldenCycles) /
                         static_cast<double>(p.wallCycles);

        // Storms are not a RunSpec axis: the record names the lifetime.
        auto record = harness::recordRun(p.spec, run, walk.result);
        record.spec.workload += "+storm=" + storm.toString();
        record.outcome.recovered = true;
        record.outcome.recoveryOutcome = walk.outcome;
        record.outcome.failuresSurvived = walk.failures;
        record.metrics = {
            {"failures", static_cast<double>(p.failures)},
            {"boots", static_cast<double>(p.boots)},
            {"mttr_mean", p.mttrMean},
            {"mttr_max", static_cast<double>(p.mttrMax)},
            {"golden_cycles", static_cast<double>(p.goldenCycles)},
            {"wall_cycles", static_cast<double>(p.wallCycles)},
            {"availability", p.availability}};
        record.simulatedCycles = p.goldenCycles + p.wallCycles;
        return record;
    });

    harness::ResultTable table(
        "Fig 22: availability under failure storms (96-request service "
        "tapes; initial crash at 60% + 3 scheduled failures). MTTR = "
        "power-on to first served request; avail = crash-free cycles / "
        "powered cycles");
    for (const char *c : {"mttr_mean", "mttr_max", "avail_pct"})
        table.addColumn(c);

    std::ostringstream csvBody;
    csvBody << "workload,scheme,failures,boots,mttr_mean,mttr_max,"
               "golden_cycles,wall_cycles,availability\n";
    for (const Point &p : points) {
        const char *label = harness::schemeLabel(p.spec);
        std::string name =
            std::string(serve::profileName(p.profile)) + "/" + label;
        table.addRow(name, label,
                     {p.mttrMean, static_cast<double>(p.mttrMax),
                      100.0 * p.availability});
        csvBody << name << ',' << label << ','
                << p.failures << ',' << p.boots << ','
                << std::setprecision(10) << p.mttrMean << ',' << p.mttrMax
                << ',' << p.goldenCycles << ',' << p.wallCycles << ','
                << p.availability << '\n';
    }

    bench::finish(table, csvBody.str(), args, exec);
    return 0;
}
