/**
 * @file
 * Figure 23 (extension): LRPO control-plane scale-out — boundary-ACK
 * latency, WPQ occupancy, fabric traffic and retry counts as the
 * machine grows from the paper's 2 iMCs to sharded 4/8/16/64-MC
 * topologies, flat fan-out vs radix-4 aggregation tree.
 *
 * Grid (quick mode runs the identical grid, so CI can byte-compare the
 * CSV against the committed reference): {flat, tree4} x {4, 8, 16, 64}
 * MCs x two workload rows — the fig16 8-thread point on the `rb`
 * profile, and a fig21-style open-loop service tape lowered onto the
 * pds hash table — x {fault-free, 10% per-link
 * broadcast loss}. Lossy rows run the router's ack/retry protocol at
 * scale; at 64 MCs they cross the word boundary that broke the old
 * single-uint64_t delivery mask (see common/bitset.hh).
 *
 * Reported per row: end-to-end cycles, region boundaries, the mean/max
 * boundary-arrival-to-full-ACK latency sampled at every MC, peak WPQ
 * occupancy, total control messages on the fabric (the O(MCs^2) flat vs
 * O(MCs) tree ablation) and router retry rounds. Rows are independent
 * simulations with per-row deterministic fault seeds and output-indexed
 * result slots, so the CSV is byte-identical at any --jobs count and
 * either --engine.
 */

#include <iomanip>
#include <sstream>

#include "bench_util.hh"
#include "core/system.hh"

using namespace lwsp;

namespace {

constexpr unsigned kMcCounts[] = {4, 8, 16, 64};
constexpr unsigned kWlThreads[] = {8};

struct Point
{
    std::string workload;     ///< "rb/t8", "serve/varnish"
    harness::RunSpec spec;    ///< its program source, scheme and shape
    bool lossy = false;
    core::RunResult res;

    /** The row's unique key, first in the CSV. */
    std::string
    name() const
    {
        return spec.topology->toString() + "/" +
               std::to_string(*spec.numMcs) + "/" + workload +
               (lossy ? "/loss100" : "");
    }
};

fault::FaultConfig
faultsFor(const Point &p, std::size_t row)
{
    fault::FaultConfig fc;
    if (!p.lossy)
        return fc;
    fc.enabled = true;
    fc.seed = 0xf23u + 7919u * static_cast<std::uint64_t>(row);
    fc.bcastLossPm = 100;
    return fc;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);

    noc::TopologyConfig flat;
    noc::TopologyConfig tree4;
    tree4.kind = noc::TopologyConfig::Kind::Tree;
    tree4.radix = 4;

    // The fig21-style service tape lowered onto the pds hash table.
    serve::ServeSpec tape;
    tape.profile = serve::Profile::Varnish;
    tape.sizeClass = 1;
    tape.numRequests = 64;
    tape.seed = 11;

    std::vector<Point> points;
    for (const auto &topo : {flat, tree4}) {
        for (unsigned mcs : kMcCounts) {
            for (bool lossy : {false, true}) {
                Point p;
                p.spec.scheme = core::Scheme::LightWsp;
                p.spec.numMcs = mcs;
                p.spec.topology = topo;
                p.lossy = lossy;
                for (unsigned t : kWlThreads) {
                    p.workload = "rb/t" + std::to_string(t);
                    p.spec.workload = "rb";
                    p.spec.threads = t;
                    points.push_back(p);
                }
                p.workload = "serve/varnish";
                p.spec.workload = tape.toString();
                p.spec.threads.reset();
                points.push_back(p);
            }
        }
    }

    auto exec = bench::makeExecutor(args);
    exec.forEach(points.size(), [&](std::size_t i) {
        Point &p = points[i];
        harness::PreparedRun run = harness::prepareRun(p.spec);
        run.cfg.faults = faultsFor(p, i);
        core::System sys(run.cfg, run.prog, run.threads);
        p.res = sys.run();
        LWSP_ASSERT(p.res.completed, "fig23 row did not complete: ",
                    p.name());
        // Faults are not a RunSpec axis: the record is named after the row.
        auto rec = harness::recordRun(p.spec, run, p.res);
        rec.spec.workload = p.name();
        rec.metrics = {
            {"bcast_lat_avg", p.res.bcastLatencyAvg},
            {"bcast_lat_max", p.res.bcastLatencyMax},
            {"noc_messages", static_cast<double>(p.res.nocMessages)},
            {"bcast_retries", static_cast<double>(p.res.bcastRetries)}};
        return rec;
    });

    harness::ResultTable table(
        "Fig 23: control-plane scale-out — boundary-ACK latency, WPQ "
        "occupancy, fabric traffic and retries at 4-64 MCs, flat fan-out "
        "vs radix-4 aggregation tree, fault-free and under 10% per-link "
        "broadcast loss");
    // Table columns must be strictly positive (per-suite geomeans);
    // zero-able metrics (retries, latency in fault-free rows) live in
    // the CSV only.
    for (const char *c : {"cycles", "boundaries", "noc_msgs"})
        table.addColumn(c);

    // The leading `name` column is the unique per-row key bench_all.sh's
    // row-subset checker greps on; keep it first.
    std::ostringstream csvBody;
    csvBody << "name,topology,mcs,workload,fault,cycles,boundaries,"
               "bcast_lat_avg,bcast_lat_max,max_wpq_occupancy,"
               "noc_messages,bcast_retries\n";
    for (const Point &p : points) {
        std::string name = p.name();
        table.addRow(name, p.spec.topology->toString(),
                     {static_cast<double>(p.res.cycles),
                      static_cast<double>(p.res.boundaries),
                      static_cast<double>(p.res.nocMessages)});
        csvBody << name << ',' << p.spec.topology->toString() << ','
                << *p.spec.numMcs << ',' << p.workload << ','
                << (p.lossy ? "loss100" : "none") << ',' << p.res.cycles
                << ',' << p.res.boundaries << ','
                << std::setprecision(10) << p.res.bcastLatencyAvg << ','
                << p.res.bcastLatencyMax << ','
                << p.res.maxWpqOccupancy << ',' << p.res.nocMessages
                << ',' << p.res.bcastRetries << '\n';
    }

    bench::finish(table, csvBody.str(), args, exec);
    return 0;
}
