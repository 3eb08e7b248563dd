/**
 * @file
 * Figure 19 (extension): per-operation slowdown of the persistent
 * data-structure library (src/pds) under every persistence scheme.
 *
 * Rows are the three structures (append-only log, chained hash table,
 * free-list allocator); columns are LightWSP, Capri, PPA, cWSP and the
 * pmtx software undo-log-transaction baseline. Each cell is
 * cycles(scheme, Perf mode) / cycles(same program, persistence-free
 * baseline machine) — the same normalization as fig07, but over real
 * crash-consistent structures instead of the paper's synthetic kernels.
 * Points are pds spec strings swept through Runner::slowdowns, so each
 * structure's baseline simulates once. Quick mode runs the identical
 * grid (it is already small).
 */

#include <iterator>

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);

    constexpr pds::Kind kinds[] = {pds::Kind::Log, pds::Kind::Hash,
                                   pds::Kind::Alloc};
    std::vector<harness::RunSpec> specs;  // row-major over the table
    for (auto k : kinds) {
        pds::PdsSpec ps;
        ps.kind = k;
        ps.sizeClass = 1;
        ps.numOps = 192;
        ps.mix = 0;
        ps.seed = 7;
        for (auto s : harness::pdsSchemes) {
            harness::RunSpec spec;
            spec.workload = ps.toString();
            spec.scheme = s;
            specs.push_back(spec);
        }
    }

    harness::Runner runner;
    auto exec = bench::makeExecutor(args);
    auto slow = exec.slowdowns(runner, specs);

    harness::ResultTable table(
        "Fig 19: pds per-op slowdown vs persistence-free baseline "
        "(sz=1, 192 ops, mix 0)");
    constexpr std::size_t cols = std::size(harness::pdsSchemes);
    for (std::size_t c = 0; c < cols; ++c)
        table.addColumn(harness::schemeLabel(specs[c]));
    for (std::size_t k = 0; k < std::size(kinds); ++k)
        table.addRow(pds::kindName(kinds[k]), "pds",
                     std::vector<double>(slow.begin() + k * cols,
                                         slow.begin() + (k + 1) * cols));

    bench::finish(table, args, exec);
    return 0;
}
