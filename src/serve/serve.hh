/**
 * @file
 * Open-loop request-arrival service model over the pds library.
 *
 * A seeded arrival process (Poisson base rate with configurable burst
 * episodes) and a Zipfian key-popularity distribution generate a
 * deterministic request tape — GET/PUT/DELETE/evict-scan mixes in two
 * named service profiles (a Varnish-style persistent object cache and a
 * horde-`persist`-style KV store). A request compiler lowers the tape
 * onto the pds chained hash table as an ordinary pds op tape, so the
 * identical LightIR driver, oracles, and fuzz machinery apply unchanged
 * to in-flight request streams.
 *
 * Latency attribution (see DESIGN.md §14 for the soundness argument):
 * the simulated server runs requests back-to-back; each op's completion
 * is timestamped by a ServeMark trace event emitted when the driver's
 * served-counter store retires (CoreConfig::serveMarkAddr). Per-request
 * service times D_r are the deltas between completing marks, and
 * open-loop latency follows from the Lindley recursion
 *     W_r = max(W_{r-1}, A_r) + D_r,    latency_r = W_r - A_r,
 * with A_r the tape's arrival times. Because arrivals enter only this
 * post-processing fold, one simulation per (profile, scheme) serves
 * every arrival-rate x burstiness cell, and results are byte-identical
 * at any --jobs count.
 */

#ifndef LWSP_SERVE_SERVE_HH
#define LWSP_SERVE_SERVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "pds/pds.hh"
#include "trace/events.hh"

namespace lwsp {
namespace serve {

/** Named service profiles (request mixes). */
enum class Profile : std::uint8_t
{
    Varnish,  ///< object cache: GET-heavy, evict scans, no resize
    Horde,    ///< KV store: write-heavy, occasional table resize
};

const char *profileName(Profile p);

/** Everything needed to regenerate a service workload deterministically. */
struct ServeSpec
{
    Profile profile = Profile::Varnish;
    unsigned sizeClass = 1;     ///< pds hash geometry class, 0..2
    unsigned numRequests = 256; ///< requests on the tape
    unsigned meanIa = 2000;     ///< mean inter-arrival time (cycles)
    unsigned burst = 0;         ///< burst preset, 0 (none) .. 2 (heavy)
    std::uint64_t seed = 1;     ///< tape + arrival RNG seed
    unsigned opsPerTx = 4;      ///< pmtx only (forwarded to the PdsSpec)

    /**
     * Canonical one-token form, colon-free so it can ride inside a fuzz
     * replay spec: "varnish,sz=1,reqs=256,ia=2000,burst=0,sseed=1[,tx=K]"
     * (tx omitted at its default).
     */
    std::string toString() const;
    static bool parse(const std::string &text, ServeSpec &out,
                      std::string &err);
};

/** Request vocabulary. */
enum class ReqType : std::uint8_t { Get, Put, Del, Scan, Resize };

const char *reqTypeName(ReqType t);

/** One service request as drawn from the profile mix. */
struct Request
{
    ReqType type = ReqType::Get;
    std::uint64_t key = 0;    ///< 0 for Scan/Resize
    std::uint64_t value = 0;  ///< Put payload
};

/**
 * Deterministic Zipfian sampler over ranks 1..n (classic skew s = 1).
 * The CDF is a normalized harmonic prefix sum — additions and divisions
 * only, so results are IEEE-identical across platforms — and sampling
 * is a binary search on Rng::uniform().
 */
class ZipfSampler
{
  public:
    explicit ZipfSampler(unsigned n);

    /** Rank in [1, n]; rank 1 is the most popular. */
    std::uint64_t sample(Rng &rng) const;

    unsigned universe() const
    {
        return static_cast<unsigned>(cdf_.size());
    }

  private:
    std::vector<double> cdf_;  ///< cdf_[i] = P(rank <= i+1)
};

/**
 * Deterministic natural log for the exponential inter-arrival draw:
 * frexp + atanh series with a fixed term count, basic IEEE ops only —
 * bit-stable across libm implementations. Relative error < 1e-11 on
 * (0, 1]; domain x > 0.
 */
double detLog(double x);

/**
 * Arrival times for spec.numRequests requests: exponential
 * inter-arrivals of mean spec.meanIa cycles, modulated by seeded burst
 * episodes (entry probability / geometric episode length / rate
 * multiplier per spec.burst preset). Uses an RNG stream independent of
 * the request tape's, so the same tape serves every rate/burst setting.
 */
std::vector<Tick> arrivalTimes(const ServeSpec &spec);

/** A generated service workload, lowered and ready to build/run. */
struct ServeWorkload
{
    ServeSpec spec;
    pds::PdsSpec pdsSpec;          ///< hash spec the tape is lowered onto
    std::vector<Request> requests;
    std::vector<pds::PdsOp> ops;   ///< lowered pds tape (>= 1 op/request)
    /**
     * opEnd[r] = cumulative op count once request r is done: the
     * request completes when the served counter (= ServeMark value)
     * reaches opEnd[r].
     */
    std::vector<unsigned> opEnd;
};

/**
 * Generate requests from the profile mix + Zipfian keys and lower them
 * onto the pds hash structure (the request compiler). Lowering tracks
 * the live-key set so every emitted op satisfies the pds feasibility
 * invariants; PdsModel's constructor re-asserts them.
 */
ServeWorkload buildWorkload(const ServeSpec &spec);

/** Per-op completion data extracted from a trace. */
struct OpMarks
{
    std::vector<Tick> completion;        ///< tick of op i's ServeMark
    std::vector<std::uint64_t> stallCum; ///< cumulative bdry-stall cycles
    std::vector<std::uint64_t> wpqOcc;   ///< max-over-MCs occupancy at mark
};

/** Open-loop tail statistics for one (workload, arrival-pattern) cell. */
struct TailReport
{
    double p50 = 0, p99 = 0, p999 = 0, max = 0, mean = 0;
    /** Boundary-stall cycles inside the p99 request's service time. */
    double stallAtP99 = 0;
    /** Max-over-MCs WPQ occupancy when the p99 request completed. */
    std::uint64_t wpqOccAtP99 = 0;
    std::uint64_t requests = 0;
};

/**
 * Folds ServeMark completion timestamps and tape arrival times into
 * exact request-latency percentiles (the Lindley recursion above), with
 * boundary-stall and WPQ-occupancy attribution at the p99 request.
 */
class LatencyRecorder
{
  public:
    /**
     * Extract per-op marks from a chronological event snapshot. Panics
     * if any op's mark is missing (ring wrap — raise traceBufferEvents).
     * WPQ occupancy is reconstructed from WpqEnqueue/WpqRelease events
     * when present (zero otherwise).
     */
    static OpMarks extractMarks(const ServeWorkload &wl,
                                const std::vector<trace::Event> &events);

    /** Lindley fold of @p arrivals against @p marks. */
    static TailReport fold(const ServeWorkload &wl, const OpMarks &marks,
                           const std::vector<Tick> &arrivals);
};

} // namespace serve
} // namespace lwsp

#endif // LWSP_SERVE_SERVE_HH
