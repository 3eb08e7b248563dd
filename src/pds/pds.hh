/**
 * @file
 * Crash-consistent persistent data structures emitted as LightIR.
 *
 * Three real structures — an append-only log with LFS-style segment
 * reclaim, a chained hash table with ping-pong resize, and a free-list
 * allocator — are generated as single-threaded LightIR programs driven
 * by a precomputed operation tape, so the same workload runs unchanged
 * under every persistence scheme (LightWSP / Capri / PPA / cWSP) plus a
 * software-transaction baseline (`pmtx`, undo-log transactions in the
 * style of Persistent Memory Transactions, Marathe et al.).
 *
 * A C++ shadow model (PdsModel) transliterates the emitted IR store for
 * store, in program order. That gives the fuzzer two oracles that no
 * synthetic program has:
 *  - checkSemantics(): walk the structure in a memory image and compare
 *    its *live contents* against the shadow (log live multiset, table
 *    key/value map + bucket placement, allocator no-leak/no-double-free
 *    with payload integrity);
 *  - checkCrashPrefix(): a LightWSP crash image must equal the initial
 *    image plus a prefix of the recorded store stream cut at the
 *    self-described op counter (§III gated commit = store-stream prefix).
 *
 * Register convention for emitted programs (single thread, r0 = tid):
 *   r1  heap base (set once in the driver entry, preserved everywhere)
 *   r2  op index   r3  numOps        (driver-owned)
 *   r4  op arg a   r5  op arg v      (scratch inside op bodies)
 *   r6..r11        op-body scratch
 *   r12..r14       reserved for the pmtx undo-log store expansion; op
 *                  bodies never use them as store base/value or keep
 *                  values in them across an instrumented store
 *   r15 stack pointer
 */

#ifndef LWSP_PDS_PDS_HH
#define LWSP_PDS_PDS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/system_config.hh"
#include "compiler/compiler.hh"
#include "ir/program.hh"
#include "mem/mem_image.hh"

namespace lwsp {
namespace pds {

/** The three persistent structures. */
enum class Kind : std::uint8_t { Log, Hash, Alloc };

const char *kindName(Kind k);

/** Everything needed to regenerate a pds program deterministically. */
struct PdsSpec
{
    Kind kind = Kind::Hash;
    unsigned sizeClass = 1;   ///< 0 (tiny) / 1 (small) / 2 (medium)
    unsigned numOps = 128;    ///< operations on the tape
    unsigned mix = 0;         ///< op-mix preset, 0..2
    std::uint64_t seed = 1;   ///< tape RNG seed
    unsigned opsPerTx = 4;    ///< pmtx only: ops per transaction (pow2)
    unsigned broken = 0;      ///< 0 correct; 1 ordering bug; 2 semantic bug

    /**
     * Canonical one-token form, colon-free so it can ride inside a
     * fuzz replay spec: "hash,sz=1,ops=128,mix=0,pseed=1[,tx=K][,broken=N]"
     * (tx/broken omitted at their defaults).
     */
    std::string toString() const;
    static bool parse(const std::string &text, PdsSpec &out,
                      std::string &err);
};

/** Derived memory geometry (all addresses absolute, 8-byte aligned). */
struct PdsParams
{
    Addr base = 0;                 ///< heap base (thread 0)
    std::size_t footprintBytes = 0;

    // Control block.
    Addr opsDone = 0;    ///< +0   self-describing completed-op counter
    Addr undoCount = 0;  ///< +8   pmtx undo-log entry count
    Addr result = 0;     ///< +16  lookup accumulator (app state)
    Addr scratch0 = 0;   ///< +24  resize spill (not crash-relevant)
    Addr scratch1 = 0;   ///< +32
    Addr served = 0;     ///< +40  monotonic served-op counter (exec-level)

    Addr structBase = 0;
    Addr tapeBase = 0;   ///< 2 words per op: op|a<<8, value
    Addr undoBase = 0;   ///< pmtx undo area, placed last
    unsigned undoCap = 0;  ///< entries (16 B each)

    // Log geometry.
    unsigned segs = 0, slotsPerSeg = 0;
    // Hash geometry.
    unsigned buckets = 0, pool = 0;
    // Allocator geometry.
    unsigned blocks = 0, handles = 0;
};

/** One recorded persistent store of the shadow model. */
struct PdsWrite
{
    Addr addr = 0;
    std::uint64_t val = 0;
};

/**
 * One tape operation: drawn by generateOps() or lowered by the serve
 * subsystem's request compiler. Meanings of (op, a, v) per Kind match
 * the builder's dispatch table:
 *   Log:   0 append(value=v)  1 trim(count=a)
 *   Hash:  0 insert(key=a, value=v)  1 delete(key=a)  2 lookup(key=a)
 *          3 resize
 *   Alloc: 0 alloc(handle=a, payload=v)  1 free(handle=a)
 * `a` must fit in 24 bits — the tape word packs op | a<<8 and the
 * driver decodes a with a 0xffffff mask. Every tape must satisfy the
 * feasibility invariants generateOps() maintains (e.g. hash insert only
 * of a non-live key with pool room); PdsModel's constructor replays and
 * asserts them, because the emitted IR carries no precondition checks
 * and an infeasible op corrupts memory silently.
 */
struct PdsOp
{
    unsigned op = 0;
    std::uint64_t a = 0;
    std::uint64_t v = 0;
};

/** Public tape op codes for tape producers (PdsOp::op). */
constexpr unsigned pdsLogAppend = 0, pdsLogTrim = 1;
constexpr unsigned pdsHashInsert = 0, pdsHashDelete = 1,
                   pdsHashLookup = 2, pdsHashResize = 3;
constexpr unsigned pdsAllocAlloc = 0, pdsAllocFree = 1;

/**
 * Geometry-only derivation for @p spec (bucket/pool/segment counts and
 * control-block addresses). undoCap and footprintBytes are tape-
 * dependent and left unset here — use PdsModel::params() for those.
 */
PdsParams pdsGeometry(const PdsSpec &spec);

/**
 * The seeded, feasibility-aware tape for @p spec: spec.numOps ops drawn
 * from the mix preset against the live shadow state, infeasible draws
 * (full log, exhausted pool, empty free list...) overridden with a
 * feasible op.
 */
std::vector<PdsOp> generateOps(const PdsSpec &spec);

/**
 * The shadow model of one (spec, tape) program: replays the tape
 * store-for-store in the exact order the emitted IR performs them,
 * tracking both the concrete word state and the abstract live contents
 * the semantic oracles compare against.
 */
class PdsModel
{
  public:
    /**
     * Run @p ops (generateOps(spec) or a lowered tape). spec.numOps is
     * overridden to ops.size(); all other spec fields (kind, sizeClass,
     * opsPerTx, seed for toString) apply unchanged. Feasibility of every
     * op is asserted during the setup replay.
     */
    PdsModel(const PdsSpec &spec, const std::vector<PdsOp> &ops);

    const PdsSpec &spec() const { return spec_; }
    const PdsParams &params() const { return params_; }
    unsigned numOps() const { return spec_.numOps; }

    /** Nonzero initial memory contents (structure init + tape). */
    std::vector<std::pair<Addr, std::uint64_t>> initialData() const;

    /** Restart the replay from the initial image. */
    void reset();

    /**
     * Apply the next op; @return its persistent stores in IR order
     * (structure stores, result/scratch stores, the trailing opsDone
     * update and the served-counter bump — everything the plain build
     * stores into the heap).
     */
    const std::vector<PdsWrite> &step();

    unsigned opsApplied() const { return applied_; }

    /** Concrete word state: initial data overlaid with applied stores. */
    std::uint64_t read(Addr a) const;

    // Abstract live contents (valid at the current replay position).
    /** Log: live id -> value (ids in [trimId, nextId)). */
    std::map<std::uint64_t, std::uint64_t> liveLog() const;
    /** Hash: live key -> value. */
    const std::map<std::uint64_t, std::uint64_t> &liveHash() const
    {
        return hashLive_;
    }
    /** Allocator: handle -> payload for allocated handles. */
    const std::map<std::uint64_t, std::uint64_t> &liveAlloc() const
    {
        return allocLive_;
    }

  private:
    friend std::vector<PdsOp> generateOps(const PdsSpec &spec);

    void apply(const PdsOp &rec);
    void w(Addr a, std::uint64_t v, bool instrumented = true);

    PdsSpec spec_;
    PdsParams params_;
    std::vector<PdsOp> ops_;

    std::map<Addr, std::uint64_t> init_;
    std::map<Addr, std::uint64_t> state_;
    unsigned applied_ = 0;
    std::vector<PdsWrite> lastWrites_;
    unsigned lastInstrumented_ = 0;

    // Abstract state (kept in lockstep with the concrete replay).
    std::map<std::uint64_t, std::uint64_t> logAll_;  ///< id -> value
    std::map<std::uint64_t, std::uint64_t> hashLive_;
    std::map<std::uint64_t, std::uint64_t> allocLive_;
};

/** A generated pds program ready for compilation. */
struct PdsProgram
{
    std::unique_ptr<ir::Module> module;
    PdsParams params;
    std::string summary;
};

/**
 * Emit the LightIR program running @p ops on @p spec's structure
 * (spec.numOps is overridden to ops.size()). With @p pmtx, every
 * persistent store is wrapped in the undo-log expansion, transactions
 * of spec.opsPerTx ops commit with a fence/clear/fence sequence, and
 * the driver entry carries the rollback-and-resume recovery preamble.
 */
PdsProgram buildPdsProgram(const PdsSpec &spec, bool pmtx,
                           const std::vector<PdsOp> &ops);

/**
 * Structure-walk semantic oracle for the (@p spec, @p ops) program
 * against a *completed* image (clean final state, or
 * recovered-and-finished state): log live multiset, hash key/value
 * integrity + bucket placement + node accounting, allocator
 * no-leak/no-double-free + payload integrity.
 * @return "" on success, else a failure description.
 */
std::string checkSemantics(const PdsSpec &spec,
                           const std::vector<PdsOp> &ops,
                           const mem::MemImage &img);

/**
 * Crash-image prefix-durability oracle for the (@p spec, @p ops)
 * program (gated LightWSP images from plain builds only): the image
 * must equal initial-data + the recorded store stream of the first C
 * complete ops (C = the image's own opsDone counter) + some prefix of
 * op C's stores. Sound because the gated WPQ commits whole regions in
 * order, so PM is always a program-order prefix of the store stream.
 * @return "" on success.
 */
std::string checkCrashPrefix(const PdsSpec &spec,
                             const std::vector<PdsOp> &ops,
                             const mem::MemImage &img);

/** The five schemes the pds benches compare (pmtx is software-only). */
enum class PdsScheme : std::uint8_t { LightWsp, Capri, Ppa, Cwsp, Pmtx };

const char *pdsSchemeName(PdsScheme s);

/**
 * Perf mode runs each scheme's faithful execution configuration (what
 * fig19 measures). Recovery mode is for crash/recover experiments:
 * capri/ppa/cwsp stand in their hardware checkpoint mechanisms with the
 * LightWSP-compiled binary + gated WPQ so recovery is exact, while
 * keeping their timing knobs — fig20 documents the substitution.
 */
enum class PdsRunMode : std::uint8_t { Perf, Recovery };

/** @return true if @p s runs the LightWSP-compiled binary in @p mode
 *  (so preparePdsProgram's storeThreshold applies). */
bool pdsUsesCompiledBinary(PdsScheme s, PdsRunMode mode);

/** System configuration for running a pds program under @p s. */
core::SystemConfig makePdsConfig(PdsScheme s, PdsRunMode mode);

/** Baseline (no persistence) machine config for fig19 denominators. */
core::SystemConfig makePdsBaselineConfig();

/**
 * Build + prepare the (@p spec, @p ops) binary for @p s in @p mode.
 * storeThreshold feeds the compiler for compiled schemes (0 = compiler
 * default); for Pmtx the program is the undo-log build run uncompiled
 * (its fences are the persistence points). @p params (if given)
 * receives the built program's geometry, tape-dependent footprint
 * included.
 */
compiler::CompiledProgram
preparePdsProgram(const PdsSpec &spec, const std::vector<PdsOp> &ops,
                  PdsScheme s, PdsRunMode mode,
                  unsigned storeThreshold = 0,
                  PdsParams *params = nullptr);

} // namespace pds
} // namespace lwsp

#endif // LWSP_PDS_PDS_HH
