/**
 * @file
 * Workload profiles standing in for the paper's 38 applications.
 *
 * The evaluation's behaviour is driven by a handful of workload knobs:
 * store density (persist-path pressure), working-set size and access
 * pattern (DRAM-cache vs PM residency — the PSP-vs-WSP axis), pointer
 * dependence (memory-latency exposure), synchronization rate (region-ID
 * ordering traffic) and thread count. Each profile names a paper app and
 * sets those knobs to that app's published character; the generator turns
 * a profile into a deterministic LightIR program whose final memory state
 * is interleaving-independent (confluent), which the crash-recovery
 * equivalence checks rely on.
 */

#ifndef LWSP_WORKLOADS_PROFILE_HH
#define LWSP_WORKLOADS_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace lwsp {
namespace workloads {

/** One inner-loop kernel executed by every thread. */
struct PhaseSpec
{
    enum class Pattern : std::uint8_t
    {
        Sequential,  ///< streaming, line-granular strides (lbm, ft)
        Random,      ///< hashed scatter/gather (is, radix, rb)
        Pointer,     ///< load-dependent chase (mcf, cg)
    };

    Pattern pattern = Pattern::Sequential;
    unsigned loads = 2;    ///< memory reads per iteration
    unsigned stores = 1;   ///< memory writes per iteration
    unsigned alus = 8;     ///< arithmetic filler per iteration
    unsigned trip = 256;   ///< inner-loop iterations per call
    unsigned reps = 1;     ///< times the phase is invoked from main
    bool lockedRmw = false;   ///< lock-protected shared counter update
    bool atomicUpdate = false; ///< AtomicAdd on a shared cell
    /**
     * Execute the shared update only every N-th iteration (power of two).
     * Real transactional workloads synchronize every few hundred
     * instructions, not every loop trip.
     */
    unsigned syncEvery = 16;
    /** Shared cells updated inside each locked critical section. */
    unsigned csCells = 6;
    /** Sequential-pattern stride per access (bytes). */
    unsigned seqStrideBytes = 64;
};

struct WorkloadProfile
{
    std::string name;
    std::string suite;  ///< CPU2006, CPU2017, STAMP, NPB, SPLASH3, WHISPER
    unsigned threads = 1;

    /** Per-thread partition size (power of two, bytes). */
    std::size_t footprintBytes = 1 << 20;
    /** Hot-subset size for the locality split (power of two, bytes). */
    std::size_t hotBytes = 64 * 1024;
    /** Fraction of accesses confined to the hot subset. */
    double locality = 0.75;

    double branchMissRate = 0.02;

    /** PPA/Capri implicit hardware-region size for this app (PRF-driven). */
    unsigned hwRegionStores = 32;

    std::vector<PhaseSpec> phases;
};

/** All 38 paper applications in Fig. 7 row order. */
const std::vector<WorkloadProfile> &paperProfiles();

/** Lookup by name; fatal() if unknown. */
const WorkloadProfile &profileByName(const std::string &name);

/** Lookup by name; null if unknown. */
const WorkloadProfile *findProfile(const std::string &name);

/** Names of the memory-intensive subset used in Fig. 9. */
const std::vector<std::string> &memoryIntensiveNames();

} // namespace workloads
} // namespace lwsp

#endif // LWSP_WORKLOADS_PROFILE_HH
