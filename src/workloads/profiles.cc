#include "profile.hh"

#include "common/logging.hh"

namespace lwsp {
namespace workloads {

namespace {

using Pattern = PhaseSpec::Pattern;

constexpr std::size_t kB = 1024;
constexpr std::size_t MB = 1024 * 1024;

/** Shorthand for a single-phase profile. */
WorkloadProfile
mk(const char *name, const char *suite, unsigned threads,
   std::size_t footprint, std::size_t hot, double locality,
   double branch_miss, unsigned hw_region, Pattern pat, unsigned loads,
   unsigned stores, unsigned alus, unsigned trip, unsigned reps,
   bool locked = false, bool atomic = false, unsigned stride = 64)
{
    WorkloadProfile p;
    p.name = name;
    p.suite = suite;
    p.threads = threads;
    p.footprintBytes = footprint;
    p.hotBytes = hot;
    p.locality = locality;
    p.branchMissRate = branch_miss;
    p.hwRegionStores = hw_region;
    PhaseSpec ph;
    ph.pattern = pat;
    ph.loads = loads;
    ph.stores = stores;
    ph.alus = alus;
    ph.trip = trip;
    ph.reps = reps;
    ph.lockedRmw = locked;
    ph.atomicUpdate = atomic;
    ph.seqStrideBytes = stride;
    p.phases.push_back(ph);
    return p;
}

std::vector<WorkloadProfile>
buildTable()
{
    std::vector<WorkloadProfile> t;

    // ---- SPEC CPU2006 (single-threaded) --------------------------------
    // Footprint sizing (scaled with the caches, see SystemConfig):
    // memory-intensive apps wrap inside 1-2MB — several times the 256KB
    // shared L2 but DRAM-cache resident — so the baseline reuses the
    // DRAM cache while ideal PSP pays PM latency/bandwidth on every L2
    // miss. Cache-friendly apps keep hot sets at or under L2 size.
    t.push_back(mk("bzip2", "CPU2006", 1, 512 * kB, 128 * kB, 0.80, 0.030,
                   32, Pattern::Random, 3, 1, 10, 512, 10));
    t.push_back(mk("h264ref", "CPU2006", 1, 512 * kB, 64 * kB, 0.90,
                   0.020, 40, Pattern::Sequential, 2, 1, 14, 512, 10));
    t.push_back(mk("hmmer", "CPU2006", 1, 256 * kB, 64 * kB, 0.90, 0.010,
                   40, Pattern::Sequential, 3, 1, 12, 512, 10));
    t.push_back(mk("lbm", "CPU2006", 1, 512 * kB, 64 * kB, 0.15, 0.005,
                   24, Pattern::Sequential, 2, 2, 6, 512, 12, false,
                   false, 256));
    t.push_back(mk("libquan", "CPU2006", 1, 512 * kB, 64 * kB, 0.05,
                   0.005, 28, Pattern::Sequential, 1, 1, 4, 1024, 8,
                   false, false, 512));
    t.push_back(mk("mcf", "CPU2006", 1, 512 * kB, 64 * kB, 0.30, 0.040,
                   28, Pattern::Pointer, 3, 1, 4, 512, 8));
    t.push_back(mk("milc", "CPU2006", 1, 512 * kB, 64 * kB, 0.25, 0.010,
                   28, Pattern::Sequential, 2, 1, 6, 512, 12, false,
                   false, 256));
    t.push_back(mk("namd", "CPU2006", 1, 512 * kB, 128 * kB, 0.92, 0.008,
                   44, Pattern::Sequential, 2, 1, 16, 512, 10));

    // ---- SPEC CPU2017 (single-threaded) --------------------------------
    t.push_back(mk("dsjeng", "CPU2017", 1, 1 * MB, 128 * kB, 0.85, 0.060,
                   36, Pattern::Random, 2, 1, 10, 512, 10));
    t.push_back(mk("imagick", "CPU2017", 1, 1 * MB, 128 * kB, 0.80,
                   0.010, 40, Pattern::Sequential, 2, 1, 14, 512, 10));
    t.push_back(mk("lbm17", "CPU2017", 1, 512 * kB, 64 * kB, 0.15, 0.005,
                   24, Pattern::Sequential, 2, 2, 6, 512, 12, false,
                   false, 256));
    t.push_back(mk("leela", "CPU2017", 1, 512 * kB, 64 * kB, 0.88, 0.060,
                   36, Pattern::Random, 2, 1, 12, 512, 10));
    t.push_back(mk("nab", "CPU2017", 1, 1 * MB, 128 * kB, 0.85, 0.012,
                   40, Pattern::Sequential, 2, 1, 12, 512, 10));
    t.push_back(mk("namd17", "CPU2017", 1, 512 * kB, 128 * kB, 0.92,
                   0.008, 44, Pattern::Sequential, 2, 1, 16, 512, 10));
    t.push_back(mk("xz", "CPU2017", 1, 512 * kB, 128 * kB, 0.70, 0.030, 32,
                   Pattern::Random, 3, 1, 8, 512, 10));

    // ---- STAMP (8 threads, transactional) --------------------------------
    t.push_back(mk("intruder", "STAMP", 8, 512 * kB, 64 * kB, 0.75,
                   0.030, 32, Pattern::Random, 2, 1, 16, 256, 8, true));
    t.push_back(mk("labyrinth", "STAMP", 8, 512 * kB, 128 * kB, 0.60,
                   0.020, 28, Pattern::Random, 2, 2, 14, 256, 8, true));
    t.push_back(mk("ssca2", "STAMP", 8, 512 * kB, 64 * kB, 0.40, 0.020,
                   28, Pattern::Random, 2, 1, 6, 256, 8, false, true));
    t.push_back(mk("vacation", "STAMP", 8, 512 * kB, 128 * kB, 0.70, 0.025,
                   32, Pattern::Random, 3, 1, 16, 256, 8, true));

    // ---- NPB (8 threads) ---------------------------------------------------
    t.push_back(mk("cg", "NPB", 8, 512 * kB, 64 * kB, 0.35, 0.010, 30,
                   Pattern::Pointer, 3, 1, 6, 256, 8));
    t.push_back(mk("ep", "NPB", 8, 64 * kB, 32 * kB, 0.95, 0.005, 48,
                   Pattern::Sequential, 1, 1, 18, 256, 10));
    t.push_back(mk("is", "NPB", 8, 512 * kB, 64 * kB, 0.30, 0.010, 24,
                   Pattern::Random, 1, 2, 16, 256, 10));
    t.push_back(mk("ft", "NPB", 8, 512 * kB, 64 * kB, 0.25, 0.008, 28,
                   Pattern::Sequential, 2, 2, 8, 256, 8, false, false,
                   256));
    t.push_back(mk("lu", "NPB", 8, 512 * kB, 128 * kB, 0.70, 0.010, 32,
                   Pattern::Sequential, 2, 1, 10, 256, 8));
    t.push_back(mk("mg", "NPB", 8, 512 * kB, 64 * kB, 0.35, 0.008, 30,
                   Pattern::Sequential, 2, 1, 8, 256, 8, false, false,
                   256));
    t.push_back(mk("sp", "NPB", 8, 512 * kB, 128 * kB, 0.55, 0.010, 32,
                   Pattern::Sequential, 2, 1, 10, 256, 8));

    // ---- SPLASH3 (8 threads) ----------------------------------------------
    t.push_back(mk("cholesky", "SPLASH3", 8, 512 * kB, 128 * kB, 0.70,
                   0.015, 34, Pattern::Random, 2, 1, 10, 256, 8));
    t.push_back(mk("fft", "SPLASH3", 8, 512 * kB, 128 * kB, 0.45, 0.008,
                   32, Pattern::Sequential, 2, 1, 8, 256, 8));
    t.push_back(mk("radix", "SPLASH3", 8, 512 * kB, 64 * kB, 0.30, 0.008,
                   24, Pattern::Random, 1, 2, 16, 256, 10));
    t.push_back(mk("barnes", "SPLASH3", 8, 512 * kB, 128 * kB, 0.60,
                   0.025, 32, Pattern::Pointer, 3, 1, 8, 256, 8));
    t.push_back(mk("raytrace", "SPLASH3", 8, 512 * kB, 128 * kB, 0.70,
                   0.030, 34, Pattern::Random, 3, 1, 10, 256, 8));
    t.push_back(mk("lu-cg", "SPLASH3", 8, 512 * kB, 128 * kB, 0.70,
                   0.010, 32, Pattern::Sequential, 2, 1, 10, 256, 8));
    t.push_back(mk("lu-ncg", "SPLASH3", 8, 512 * kB, 128 * kB, 0.60,
                   0.010, 32, Pattern::Sequential, 2, 1, 10, 256, 8));
    t.push_back(mk("ocean-cg", "SPLASH3", 8, 512 * kB, 64 * kB, 0.30,
                   0.010, 30, Pattern::Sequential, 2, 2, 8, 256, 8,
                   false, false, 256));
    t.push_back(mk("water-ns", "SPLASH3", 8, 512 * kB, 128 * kB, 0.85,
                   0.010, 40, Pattern::Sequential, 2, 1, 12, 256, 8));
    t.push_back(mk("water-sp", "SPLASH3", 8, 512 * kB, 128 * kB, 0.85,
                   0.010, 40, Pattern::Sequential, 2, 1, 12, 256, 8));

    // ---- WHISPER (8 threads, write-intensive persistent apps) -----------
    t.push_back(mk("rb", "WHISPER", 8, 256 * kB, 64 * kB, 0.50, 0.020, 26,
                   Pattern::Random, 2, 2, 16, 256, 8, true));
    t.push_back(mk("tatp", "WHISPER", 8, 256 * kB, 64 * kB, 0.60, 0.015,
                   26, Pattern::Random, 2, 2, 16, 256, 8, true));
    t.push_back(mk("tpcc", "WHISPER", 8, 256 * kB, 64 * kB, 0.55, 0.020,
                   26, Pattern::Random, 3, 3, 12, 256, 8, true));

    return t;
}

} // namespace

const std::vector<WorkloadProfile> &
paperProfiles()
{
    static const std::vector<WorkloadProfile> table = buildTable();
    return table;
}

const WorkloadProfile &
profileByName(const std::string &name)
{
    if (const WorkloadProfile *p = findProfile(name))
        return *p;
    fatal("unknown workload profile '", name, "'");
}

const WorkloadProfile *
findProfile(const std::string &name)
{
    for (const auto &p : paperProfiles()) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

const std::vector<std::string> &
memoryIntensiveNames()
{
    static const std::vector<std::string> names = {
        "lbm", "libquan", "milc", "rb", "tatp", "tpcc",
    };
    return names;
}

} // namespace workloads
} // namespace lwsp
