/**
 * @file
 * Figure 21 (extension): open-loop request-latency tails of the serve
 * subsystem — p50/p99/p999 per-request latency under every persistence
 * scheme, for both service profiles, across an arrival-rate x
 * burstiness grid.
 *
 * Only the (profile x scheme) grid is simulated — 10 traced runs with
 * ServeMark timestamping. Arrival times enter purely in the
 * LatencyRecorder::fold post-processing (Lindley recursion), so every
 * arrival-rate/burstiness cell reuses the same completion marks and the
 * CSV is byte-identical at any --jobs count; quick mode runs the
 * identical grid. Alongside the latency percentiles each row reports
 * boundary-stall cycles inside the p99 request's service time and the
 * max-over-MCs WPQ occupancy at its completion — the tail-attribution
 * view a service operator cares about (which ROADMAP item 1 asked for).
 */

#include <iomanip>
#include <sstream>

#include "bench_util.hh"
#include "core/system.hh"
#include "trace/events.hh"

using namespace lwsp;

namespace {

constexpr serve::Profile kProfiles[] = {serve::Profile::Varnish,
                                        serve::Profile::Horde};
constexpr unsigned kMeanIas[] = {2000, 1000, 500};  ///< arrival rates
constexpr unsigned kBursts[] = {0, 2};              ///< none / heavy

/** An arrival-grid cell, as named in the table rows. */
std::string
cellName(unsigned ia, unsigned burst)
{
    return "ia=" + std::to_string(ia) + "/b=" + std::to_string(burst);
}

/** One simulated (profile, scheme) point; arrival cells fold from it. */
struct SimPoint
{
    serve::Profile profile = serve::Profile::Varnish;
    harness::RunSpec spec;
    std::vector<serve::TailReport> tails;  ///< row-major over the cells
};

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);

    std::vector<SimPoint> sims;
    for (auto prof : kProfiles) {
        serve::ServeSpec ss;
        ss.profile = prof;
        ss.sizeClass = 1;
        ss.numRequests = 1200;
        ss.seed = 11;
        for (auto s : harness::pdsSchemes) {
            SimPoint p;
            p.profile = prof;
            p.spec.workload = ss.toString();
            p.spec.scheme = s;
            sims.push_back(std::move(p));
        }
    }

    auto exec = bench::makeExecutor(args);
    exec.forEach(sims.size(), [&](std::size_t i) {
        SimPoint &p = sims[i];
        harness::PreparedRun run = harness::prepareRun(p.spec);
        const serve::ServeWorkload &wl = *run.serve;
        run.cfg.traceEnabled = true;
        run.cfg.traceMask = trace::categoryBit(trace::Category::Serve) |
                            trace::categoryBit(trace::Category::Wpq);
        // Must hold every Serve+Wpq event of the run: a wrapped ring
        // would silently drop early request marks (extractMarks panics).
        run.cfg.traceBufferEvents = std::size_t(1) << 18;
        run.cfg.core.serveMarkAddr = run.served;

        core::System sys(run.cfg, run.prog, 1);
        auto res = sys.run();
        LWSP_ASSERT(res.completed, "fig21 point did not complete: ",
                    p.spec.workload, " scheme ",
                    harness::schemeLabel(p.spec));
        std::string err = run.checkSemantics(sys.execImage());
        LWSP_ASSERT(err.empty(), "fig21 semantic check failed: ", err);
        auto marks = serve::LatencyRecorder::extractMarks(
            wl, sys.traceSink()->snapshot());

        // Fold the arrival grid (pure post-processing, deterministic).
        auto record = harness::recordRun(p.spec, run, res);
        for (unsigned ia : kMeanIas) {
            for (unsigned b : kBursts) {
                serve::ServeSpec aspec = wl.spec;
                aspec.meanIa = ia;
                aspec.burst = b;
                const auto &t = p.tails.emplace_back(
                    serve::LatencyRecorder::fold(
                        wl, marks, serve::arrivalTimes(aspec)));
                const std::string at = cellName(ia, b) + "/";
                record.metrics.insert(
                    record.metrics.end(),
                    {{at + "p50", t.p50},
                     {at + "p99", t.p99},
                     {at + "p999", t.p999},
                     {at + "max", t.max},
                     {at + "mean", t.mean},
                     {at + "stall_p99", t.stallAtP99},
                     {at + "wpq_p99", static_cast<double>(t.wpqOccAtP99)},
                     {at + "requests", static_cast<double>(t.requests)}});
            }
        }
        return record;
    });

    // The console table carries only the latency columns (strictly
    // positive, so the per-suite geomean rows are meaningful); the CSV
    // adds the tail-attribution columns, which can legitimately be 0
    // (pmtx has no boundary stalls).
    harness::ResultTable table(
        "Fig 21: open-loop request latency tails (cycles), 1200 requests "
        "per profile, Zipf keys. Rows <profile>/<scheme>/ia=<mean "
        "inter-arrival>/b=<burst preset>");
    for (const char *c : {"p50", "p99", "p999", "max"})
        table.addColumn(c);

    std::ostringstream csvBody;
    csvBody << "workload,suite,p50,p99,p999,max,stall99,wpq99\n";
    for (const SimPoint &p : sims) {
        const char *label = harness::schemeLabel(p.spec);
        const serve::TailReport *rep = p.tails.data();
        for (unsigned ia : kMeanIas) {
            for (unsigned b : kBursts) {
                std::string name =
                    std::string(serve::profileName(p.profile)) + "/" +
                    label + "/" + cellName(ia, b);
                table.addRow(name, label,
                             {rep->p50, rep->p99, rep->p999, rep->max});
                csvBody << name << ',' << label << ','
                        << std::setprecision(10) << rep->p50 << ','
                        << rep->p99 << ',' << rep->p999 << ',' << rep->max
                        << ',' << rep->stallAtP99 << ','
                        << rep->wpqOccAtP99 << '\n';
                ++rep;
            }
        }
    }

    bench::finish(table, csvBody.str(), args, exec);
    return 0;
}
