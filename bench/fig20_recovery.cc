/**
 * @file
 * Figure 20 (extension): recovery latency of the persistent
 * data-structure library — power-on to first served operation — as a
 * function of checkpoint distance.
 *
 * Each point crashes a structure run at 60% of its crash-free cycle
 * count, rebuilds a system from the surviving PM image with
 * System::recover(), and times how long the recovered machine takes to
 * serve its first operation (the exec-level served counter moving, via
 * System::runUntilWordChanges). Rows are <structure>/<scheme>; the
 * four distance columns d1..d4 map to compiler storeThreshold
 * {8,16,32,64} for the compiled schemes and to opsPerTx {1,2,4,8} for
 * the pmtx undo-log baseline — in both cases d(i+1) doubles the work
 * redone after a crash.
 *
 * Points run in Recovery mode (RunSpec::mode), which substitutes the
 * LightWSP gated-commit binary for capri/ppa/cwsp's hardware checkpoint
 * mechanisms (their timing knobs are kept) so that recovery is exact —
 * see DESIGN.md §13; the column trend, not cross-scheme magnitude, is
 * the result here. Quick mode runs the identical (already small) grid.
 */

#include <iterator>

#include "bench_util.hh"
#include "core/system.hh"

using namespace lwsp;

namespace {

constexpr pds::Kind kKinds[] = {pds::Kind::Log, pds::Kind::Hash,
                                pds::Kind::Alloc};
constexpr unsigned kThresholds[] = {8, 16, 32, 64}; ///< compiled schemes
constexpr unsigned kOpsPerTx[] = {1, 2, 4, 8};      ///< pmtx
constexpr std::size_t kDists = 4;

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);

    std::vector<harness::RunSpec> specs;  // row-major over the table
    for (auto k : kKinds) {
        for (auto s : harness::pdsSchemes) {
            for (std::size_t d = 0; d < kDists; ++d) {
                pds::PdsSpec ps;
                ps.kind = k;
                ps.sizeClass = 1;
                ps.numOps = 128;
                ps.mix = 0;
                ps.seed = 7;
                harness::RunSpec spec;
                spec.scheme = s;
                spec.mode = pds::PdsRunMode::Recovery;
                if (s == core::Scheme::NaiveSfence)  // pmtx
                    ps.opsPerTx = kOpsPerTx[d];
                else
                    spec.storeThreshold = kThresholds[d];
                spec.workload = ps.toString();
                specs.push_back(spec);
            }
        }
    }

    std::vector<Tick> latency(specs.size());  // power-on to first op
    auto exec = bench::makeExecutor(args);
    exec.forEach(specs.size(), [&](std::size_t i) {
        const harness::RunSpec &spec = specs[i];
        harness::PreparedRun run = harness::prepareRun(spec);

        core::System golden(run.cfg, run.prog, 1);
        auto gres = golden.run();
        LWSP_ASSERT(gres.completed, "fig20 golden did not complete: ",
                    spec.workload);

        core::System victim(run.cfg, run.prog, 1);
        victim.runWithPowerFailure(gres.cycles * 6 / 10);
        auto rec = core::System::recover(run.cfg, run.prog, 1,
                                         victim.pmImage(), {});
        std::uint64_t servedAtBoot = rec->execImage().read(run.served);
        auto probe = rec->runUntilWordChanges(run.served, servedAtBoot);
        LWSP_ASSERT(probe.served, "fig20 recovered run served nothing: ",
                    spec.workload, " scheme ", harness::schemeLabel(spec));
        latency[i] = probe.serveTick;

        auto record = harness::recordRun(spec, run, gres);
        record.metrics = {
            {"threshold",
             static_cast<double>(spec.storeThreshold.value_or(0))},
            {"golden_cycles", static_cast<double>(gres.cycles)},
            {"latency_cycles", static_cast<double>(latency[i])}};
        record.simulatedCycles += latency[i];
        return record;
    });

    harness::ResultTable table(
        "Fig 20: pds recovery latency, power-on to first served op "
        "(cycles; crash at 60% of crash-free run, 128 ops). d1..d4 = "
        "storeThreshold 8/16/32/64 (compiled) or opsPerTx 1/2/4/8 "
        "(pmtx)");
    for (std::size_t d = 0; d < kDists; ++d)
        table.addColumn("d" + std::to_string(d + 1));

    constexpr std::size_t perKind = std::size(harness::pdsSchemes) * kDists;
    for (std::size_t row = 0; row < specs.size(); row += kDists) {
        const char *label = harness::schemeLabel(specs[row]);
        table.addRow(std::string(pds::kindName(kKinds[row / perKind])) +
                         "/" + label,
                     label,
                     std::vector<double>(latency.begin() + row,
                                         latency.begin() + row + kDists));
    }

    bench::finish(table, args, exec);
    return 0;
}
