/**
 * @file
 * PdsSpec canonical form, geometry derivation, feasibility-aware tape
 * generation, and the shadow model + semantic / crash-prefix oracles.
 *
 * The shadow's applyOp() transliterates builder.cc store for store, in
 * program order — the two files must change together (test_pds pins the
 * equivalence on clean runs; the fuzz campaign pins it across crash
 * cuts via checkCrashPrefix).
 */

#include "pds/pds.hh"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "workloads/generator.hh"

namespace lwsp {
namespace pds {

namespace {

// Per-size-class geometry. Kept deliberately small: these programs run
// under cycle-accurate simulation, and the structures' interesting
// behavior (reclaim, resize, free-list churn) shows up at tiny sizes.
struct Geometry
{
    unsigned logSegs, logSlots;
    unsigned hashBuckets, hashPool;
    unsigned allocBlocks;
};

constexpr Geometry geoTable[3] = {
    {4, 8, 8, 24, 16},
    {6, 16, 16, 64, 48},
    {8, 32, 32, 160, 128},
};

constexpr std::uint64_t hashMult = 2654435761ull;  // Knuth 2^32/phi

std::uint64_t
hashOf(std::uint64_t key, std::uint64_t mask)
{
    return (key * hashMult) & mask;
}

constexpr unsigned opLogAppend = 0, opLogTrim = 1;
constexpr unsigned opHashInsert = 0, opHashDelete = 1, opHashLookup = 2,
                   opHashResize = 3;
constexpr unsigned opAllocAlloc = 0, opAllocFree = 1;

} // namespace

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Log: return "log";
      case Kind::Hash: return "hash";
      case Kind::Alloc: return "alloc";
    }
    return "?";
}

std::string
PdsSpec::toString() const
{
    std::ostringstream os;
    os << kindName(kind) << ",sz=" << sizeClass << ",ops=" << numOps
       << ",mix=" << mix << ",pseed=" << seed;
    if (opsPerTx != 4)
        os << ",tx=" << opsPerTx;
    if (broken != 0)
        os << ",broken=" << broken;
    return os.str();
}

bool
PdsSpec::parse(const std::string &text, PdsSpec &out, std::string &err)
{
    PdsSpec spec;
    std::istringstream is(text);
    std::string tok;
    bool first = true;
    while (std::getline(is, tok, ',')) {
        if (first) {
            first = false;
            if (tok == "log") {
                spec.kind = Kind::Log;
            } else if (tok == "hash") {
                spec.kind = Kind::Hash;
            } else if (tok == "alloc") {
                spec.kind = Kind::Alloc;
            } else {
                err = "unknown pds kind '" + tok + "'";
                return false;
            }
            continue;
        }
        auto eq = tok.find('=');
        if (eq == std::string::npos) {
            err = "malformed pds field '" + tok + "'";
            return false;
        }
        std::string key = tok.substr(0, eq);
        std::uint64_t val = 0;
        if (!parseDecimal(std::string_view(tok).substr(eq + 1), val)) {
            err = "malformed pds value '" + tok + "'";
            return false;
        }
        if (key == "sz") {
            spec.sizeClass = static_cast<unsigned>(val);
        } else if (key == "ops") {
            spec.numOps = static_cast<unsigned>(val);
        } else if (key == "mix") {
            spec.mix = static_cast<unsigned>(val);
        } else if (key == "pseed") {
            spec.seed = val;
        } else if (key == "tx") {
            spec.opsPerTx = static_cast<unsigned>(val);
        } else if (key == "broken") {
            spec.broken = static_cast<unsigned>(val);
        } else {
            err = "unknown pds key '" + key + "'";
            return false;
        }
    }
    if (first) {
        err = "empty pds spec";
        return false;
    }
    if (spec.sizeClass > 2) {
        err = "pds sz out of range";
        return false;
    }
    if (spec.mix > 2) {
        err = "pds mix out of range";
        return false;
    }
    if (spec.numOps < 1 || spec.numOps > 100000) {
        err = "pds ops out of range";
        return false;
    }
    if (spec.opsPerTx == 0 || (spec.opsPerTx & (spec.opsPerTx - 1)) != 0 ||
        spec.opsPerTx > 64) {
        err = "pds tx must be a power of two <= 64";
        return false;
    }
    if (spec.broken > 2) {
        err = "pds broken out of range";
        return false;
    }
    out = spec;
    return true;
}

// ---------------------------------------------------------------------------
// Geometry.

namespace {

PdsParams
deriveBaseParams(const PdsSpec &spec)
{
    const Geometry &g = geoTable[spec.sizeClass];
    PdsParams p;
    p.base = workloads::Workload::heapBase;
    p.opsDone = p.base + 0;
    p.undoCount = p.base + 8;
    p.result = p.base + 16;
    p.scratch0 = p.base + 24;
    p.scratch1 = p.base + 32;
    p.served = p.base + 40;
    p.structBase = p.base + 0x40;

    std::size_t structWords = 0;
    switch (spec.kind) {
      case Kind::Log:
        p.segs = g.logSegs;
        p.slotsPerSeg = g.logSlots;
        structWords = 4 + std::size_t(p.segs) * (1 + p.slotsPerSeg);
        break;
      case Kind::Hash:
        p.buckets = g.hashBuckets;
        p.pool = g.hashPool;
        structWords = 4 + 3 * std::size_t(p.buckets) + 4 * p.pool;
        break;
      case Kind::Alloc:
        p.blocks = g.allocBlocks;
        p.handles = g.allocBlocks;
        structWords = 1 + 2 * std::size_t(p.blocks) + p.handles;
        break;
    }
    std::size_t structBytes = (structWords * 8 + 63) & ~std::size_t(63);
    p.tapeBase = p.structBase + structBytes;
    p.undoBase = p.tapeBase + std::size_t(spec.numOps) * 16;
    // undoCap filled in once the tape (and so the worst tx) is known.
    return p;
}

// Log cell addresses.
Addr logCurSeg(const PdsParams &p) { return p.structBase + 0; }
Addr logCurOff(const PdsParams &p) { return p.structBase + 8; }
Addr logTrimId(const PdsParams &p) { return p.structBase + 16; }
Addr logNextId(const PdsParams &p) { return p.structBase + 24; }
Addr
logSegUsed(const PdsParams &p, unsigned s)
{
    return p.structBase + 32 + Addr(s) * (p.slotsPerSeg + 1) * 8;
}
Addr
logSegEntry(const PdsParams &p, unsigned s, unsigned j)
{
    return logSegUsed(p, s) + 8 + Addr(j) * 8;
}

// Hash cell addresses.
Addr hashCurTbl(const PdsParams &p) { return p.structBase + 0; }
Addr hashMask(const PdsParams &p) { return p.structBase + 8; }
Addr hashFree(const PdsParams &p) { return p.structBase + 16; }
Addr hashBump(const PdsParams &p) { return p.structBase + 24; }
Addr
hashTbl(const PdsParams &p, unsigned t)
{
    return p.structBase + 32 + Addr(t) * p.buckets * 8;
}
Addr
hashBucket(const PdsParams &p, unsigned t, std::uint64_t h)
{
    return hashTbl(p, t) + h * 8;
}
Addr
hashNode(const PdsParams &p, std::uint64_t idx)
{
    return p.structBase + 32 + Addr(3) * p.buckets * 8 + idx * 32;
}

// Allocator cell addresses.
Addr allocFreeHead(const PdsParams &p) { return p.structBase + 0; }
Addr
allocBlock(const PdsParams &p, std::uint64_t idx)
{
    return p.structBase + 8 + idx * 16;
}
Addr
allocHandle(const PdsParams &p, std::uint64_t h)
{
    return p.structBase + 8 + Addr(p.blocks) * 16 + h * 8;
}

} // namespace

PdsParams
pdsGeometry(const PdsSpec &spec)
{
    return deriveBaseParams(spec);
}

// ---------------------------------------------------------------------------
// PdsModel.

PdsModel::PdsModel(const PdsSpec &spec) : spec_(spec)
{
    initStructure();
    generateTape();
    finishInit();
}

PdsModel::PdsModel(const PdsSpec &spec, const std::vector<PdsOp> &ops)
    : spec_(spec)
{
    LWSP_ASSERT(!ops.empty() && ops.size() <= 100000,
                "injected pds tape size out of range");
    spec_.numOps = static_cast<unsigned>(ops.size());
    initStructure();
    ops_ = ops;
    replayInjected();
    finishInit();
}

void
PdsModel::initStructure()
{
    params_ = deriveBaseParams(spec_);

    // Nonzero initial data only (absent words read as zero).
    switch (spec_.kind) {
      case Kind::Log:
        init_[logNextId(params_)] = 1;
        break;
      case Kind::Hash:
        init_[hashMask(params_)] = params_.buckets - 1;
        break;
      case Kind::Alloc:
        init_[allocFreeHead(params_)] = 1;
        for (unsigned i = 0; i + 1 < params_.blocks; ++i)
            init_[allocBlock(params_, i)] = i + 2;
        break;
    }
}

void
PdsModel::finishInit()
{
    for (unsigned i = 0; i < spec_.numOps; ++i) {
        tape_.push_back(ops_[i].op | (ops_[i].a << 8));
        tape_.push_back(ops_[i].v);
    }
    for (unsigned i = 0; i < tape_.size(); ++i) {
        if (tape_[i])
            init_[params_.tapeBase + Addr(i) * 8] = tape_[i];
    }

    params_.undoCap = maxTxStores_ + 4;
    std::size_t end =
        params_.undoBase + std::size_t(params_.undoCap) * 16 - params_.base;
    params_.footprintBytes = (end + 63) & ~std::size_t(63);

    reset();
}

/**
 * Replay an injected tape forward (mirrors generateTape's replay loop):
 * asserts each op's feasibility invariant — the emitted IR has no
 * precondition checks, so an infeasible op writes outside the structure
 * — and accumulates maxTxStores_ for the pmtx undo-area sizing.
 */
void
PdsModel::replayInjected()
{
    const PdsParams &p = params_;
    unsigned txStores = 0;
    for (unsigned i = 0; i < spec_.numOps; ++i) {
        const OpRec &rec = ops_[i];
        LWSP_ASSERT(rec.a <= 0xffffffull,
                    "injected pds op arg exceeds the 24-bit tape field");
        switch (spec_.kind) {
          case Kind::Log:
            LWSP_ASSERT(rec.op <= opLogTrim, "bad injected log op");
            if (rec.op == opLogAppend) {
                std::uint64_t off = read(logCurOff(p));
                if (off >= p.slotsPerSeg) {
                    std::uint64_t seg = read(logCurSeg(p));
                    seg = seg + 1 == p.segs ? 0 : seg + 1;
                    std::uint64_t u = read(logSegUsed(p, unsigned(seg)));
                    std::uint64_t trim = read(logTrimId(p));
                    std::uint64_t kept = 0;
                    for (std::uint64_t j = 0; j < u; ++j) {
                        if ((read(logSegEntry(p, unsigned(seg),
                                              unsigned(j))) >>
                             32) >= trim)
                            ++kept;
                    }
                    LWSP_ASSERT(kept < p.slotsPerSeg,
                                "injected log append into a full log");
                }
            }
            break;
          case Kind::Hash:
            LWSP_ASSERT(rec.op <= opHashResize, "bad injected hash op");
            if (rec.op == opHashInsert) {
                LWSP_ASSERT(rec.a != 0, "injected hash insert of key 0");
                LWSP_ASSERT(!hashLive_.count(rec.a),
                            "injected hash insert of a live key ", rec.a);
                LWSP_ASSERT(hashLive_.size() < p.pool,
                            "injected hash insert with node pool full");
            }
            break;
          case Kind::Alloc:
            LWSP_ASSERT(rec.op <= opAllocFree, "bad injected alloc op");
            LWSP_ASSERT(rec.a < p.handles,
                        "injected alloc handle out of range");
            if (rec.op == opAllocAlloc) {
                LWSP_ASSERT(read(allocFreeHead(p)) != 0 &&
                                !allocLive_.count(rec.a),
                            "injected alloc with no free block or live "
                            "handle ", rec.a);
            } else {
                LWSP_ASSERT(allocLive_.count(rec.a),
                            "injected free of unallocated handle ", rec.a);
            }
            break;
        }

        lastWrites_.clear();
        lastInstrumented_ = 0;
        applyOp(rec);
        ++applied_;
        w(p.opsDone, applied_);
        w(p.served, read(p.served) + 1, false);

        txStores += lastInstrumented_;
        if ((i + 1) % spec_.opsPerTx == 0 || i + 1 == spec_.numOps) {
            maxTxStores_ = std::max(maxTxStores_, txStores);
            txStores = 0;
        }
    }
}

std::vector<std::pair<Addr, std::uint64_t>>
PdsModel::initialData() const
{
    std::vector<std::pair<Addr, std::uint64_t>> out(init_.begin(),
                                                    init_.end());
    return out;
}

void
PdsModel::reset()
{
    state_.clear();
    applied_ = 0;
    lastWrites_.clear();
    logAll_.clear();
    hashLive_.clear();
    allocLive_.clear();
}

std::uint64_t
PdsModel::read(Addr a) const
{
    auto it = state_.find(a);
    if (it != state_.end())
        return it->second;
    auto ii = init_.find(a);
    return ii != init_.end() ? ii->second : 0;
}

void
PdsModel::w(Addr a, std::uint64_t v, bool instrumented)
{
    state_[a] = v;
    lastWrites_.push_back({a, v});
    if (instrumented)
        ++lastInstrumented_;
}

const std::vector<PdsWrite> &
PdsModel::step()
{
    LWSP_ASSERT(applied_ < spec_.numOps, "PdsModel::step past tape end");
    lastWrites_.clear();
    lastInstrumented_ = 0;
    applyOp(ops_[applied_]);
    ++applied_;
    // The driver epilogue: opsDone (instrumented), then the exec-level
    // served counter (plain store, not undo-logged).
    w(params_.opsDone, applied_);
    w(params_.served, read(params_.served) + 1, /*instrumented=*/false);
    return lastWrites_;
}

std::map<std::uint64_t, std::uint64_t>
PdsModel::liveLog() const
{
    std::map<std::uint64_t, std::uint64_t> out;
    std::uint64_t trim = read(logTrimId(params_));
    std::uint64_t next = read(logNextId(params_));
    for (std::uint64_t id = trim; id < next; ++id)
        out[id] = logAll_.at(id);
    return out;
}

/**
 * Apply one op, recording stores in the exact order builder.cc emits
 * them. Comments name the builder blocks each group corresponds to.
 */
void
PdsModel::applyOp(const OpRec &rec)
{
    const PdsParams &p = params_;
    switch (spec_.kind) {
      case Kind::Log:
        if (rec.op == opLogAppend) {
            std::uint64_t seg = read(logCurSeg(p));
            std::uint64_t off = read(logCurOff(p));
            if (off >= p.slotsPerSeg) {           // advance + reclaim
                seg = seg + 1 == p.segs ? 0 : seg + 1;
                w(logCurSeg(p), seg);
                std::uint64_t u = read(logSegUsed(p, unsigned(seg)));
                std::uint64_t trim = read(logTrimId(p));
                std::uint64_t wi = 0;
                for (std::uint64_t j = 0; j < u; ++j) {
                    std::uint64_t e =
                        read(logSegEntry(p, unsigned(seg), unsigned(j)));
                    if ((e >> 32) >= trim) {
                        w(logSegEntry(p, unsigned(seg), unsigned(wi)), e);
                        ++wi;
                    }
                }
                w(logSegUsed(p, unsigned(seg)), wi);
                w(logCurOff(p), wi);
                off = wi;
            }
            std::uint64_t id = read(logNextId(p));
            std::uint64_t e = (id << 32) | rec.v;
            w(logSegEntry(p, unsigned(seg), unsigned(off)), e);
            w(logSegUsed(p, unsigned(seg)), off + 1);
            w(logCurOff(p), off + 1);
            w(logNextId(p), id + 1);
            logAll_[id] = rec.v;
        } else {                                   // trim
            std::uint64_t t = read(logTrimId(p)) + rec.a;
            std::uint64_t next = read(logNextId(p));
            if (t >= next)
                t = next;
            w(logTrimId(p), t);
        }
        break;

      case Kind::Hash: {
        unsigned t = unsigned(read(hashCurTbl(p)));
        std::uint64_t m = read(hashMask(p));
        if (rec.op == opHashInsert) {
            std::uint64_t h = hashOf(rec.a, m);
            std::uint64_t f = read(hashFree(p));
            std::uint64_t idx1;
            if (f != 0) {                          // pop free list
                idx1 = f;
                w(hashFree(p), read(hashNode(p, f - 1) + 16));
            } else {                               // bump allocation
                std::uint64_t b = read(hashBump(p));
                w(hashBump(p), b + 1);
                idx1 = b + 1;
            }
            Addr np = hashNode(p, idx1 - 1);
            w(np + 0, rec.a);
            w(np + 8, rec.v);
            w(np + 16, read(hashBucket(p, t, h)));
            w(hashBucket(p, t, h), idx1);
            hashLive_[rec.a] = rec.v;
        } else if (rec.op == opHashDelete) {
            std::uint64_t h = hashOf(rec.a, m);
            std::uint64_t cur = read(hashBucket(p, t, h));
            Addr prev = 0;
            while (cur != 0) {
                Addr np = hashNode(p, cur - 1);
                if (read(np + 0) == rec.a) {
                    std::uint64_t nxt = read(np + 16);
                    if (prev == 0)
                        w(hashBucket(p, t, h), nxt);
                    else
                        w(prev + 16, nxt);
                    w(np + 16, read(hashFree(p)));
                    w(hashFree(p), cur);
                    hashLive_.erase(rec.a);
                    break;
                }
                prev = np;
                cur = read(np + 16);
            }
        } else if (rec.op == opHashLookup) {
            std::uint64_t h = hashOf(rec.a, m);
            std::uint64_t cur = read(hashBucket(p, t, h));
            std::uint64_t found = 0;
            while (cur != 0) {
                Addr np = hashNode(p, cur - 1);
                if (read(np + 0) == rec.a) {
                    found = read(np + 8);
                    break;
                }
                cur = read(np + 16);
            }
            w(p.result, read(p.result) + found);
        } else {                                   // resize
            unsigned d = 1 - t;
            std::uint64_t dm = t == 0 ? 2 * m + 1 : m >> 1;
            w(p.scratch0, p.base + Addr(d) * p.buckets * 8,
              /*instrumented=*/false);
            w(p.scratch1, dm, /*instrumented=*/false);
            for (std::uint64_t i = 0; i <= m; ++i) {
                std::uint64_t h0;
                while ((h0 = read(hashBucket(p, t, i))) != 0) {
                    Addr np = hashNode(p, h0 - 1);
                    w(hashBucket(p, t, i), read(np + 16));
                    std::uint64_t h2 = hashOf(read(np + 0), dm);
                    w(np + 16, read(hashBucket(p, d, h2)));
                    w(hashBucket(p, d, h2), h0);
                }
            }
            w(hashCurTbl(p), d);
            w(hashMask(p), dm);
        }
        break;
      }

      case Kind::Alloc:
        if (rec.op == opAllocAlloc) {
            std::uint64_t idx1 = read(allocFreeHead(p));
            Addr bp = allocBlock(p, idx1 - 1);
            w(allocFreeHead(p), read(bp + 0));
            w(bp + 0, 0);
            w(bp + 8, rec.v);
            w(allocHandle(p, rec.a), idx1);
            allocLive_[rec.a] = rec.v;
        } else {                                   // free
            std::uint64_t idx1 = read(allocHandle(p, rec.a));
            Addr bp = allocBlock(p, idx1 - 1);
            w(bp + 0, read(allocFreeHead(p)));
            w(allocFreeHead(p), idx1);
            w(allocHandle(p, rec.a), 0);
            allocLive_.erase(rec.a);
        }
        break;
    }
}

/**
 * Tape generation: draw op types from the mix preset, overriding
 * infeasible choices (full log, exhausted pool, empty free list...)
 * with a feasible one so the emitted IR needs no precondition checks.
 * Runs the shadow forward as it draws, then reset() rewinds.
 */
void
PdsModel::generateTape()
{
    Rng rng(spec_.seed ^ 0x7064732d74617065ull);  // "pds-tape"
    const PdsParams &p = params_;

    unsigned txStores = 0;
    for (unsigned i = 0; i < spec_.numOps; ++i) {
        OpRec rec{0, 0, 0};
        switch (spec_.kind) {
          case Kind::Log: {
            static constexpr unsigned appendPct[3] = {85, 70, 95};
            bool wantAppend = rng.below(100) < appendPct[spec_.mix];
            bool canAppend = true;
            std::uint64_t off = read(logCurOff(p));
            if (off >= p.slotsPerSeg) {
                std::uint64_t seg = read(logCurSeg(p));
                seg = seg + 1 == p.segs ? 0 : seg + 1;
                std::uint64_t u = read(logSegUsed(p, unsigned(seg)));
                std::uint64_t trim = read(logTrimId(p));
                std::uint64_t kept = 0;
                for (std::uint64_t j = 0; j < u; ++j) {
                    if ((read(logSegEntry(p, unsigned(seg), unsigned(j))) >>
                         32) >= trim)
                        ++kept;
                }
                canAppend = kept < p.slotsPerSeg;
            }
            if (wantAppend && canAppend) {
                rec = {opLogAppend, 0, rng.next() & 0xffffffffull};
            } else {
                std::uint64_t live =
                    read(logNextId(p)) - read(logTrimId(p));
                std::uint64_t n = wantAppend
                                      ? std::max<std::uint64_t>(
                                            1, (live + 3) / 4)
                                      : rng.range(1, p.slotsPerSeg);
                rec = {opLogTrim, n, 0};
            }
            break;
          }
          case Kind::Hash: {
            // ins / del / lookup / resize percent per mix.
            static constexpr unsigned cut[3][3] = {
                {40, 65, 98}, {20, 30, 98}, {45, 90, 99}};
            unsigned roll = unsigned(rng.below(100));
            unsigned want = roll < cut[spec_.mix][0]      ? opHashInsert
                            : roll < cut[spec_.mix][1]    ? opHashDelete
                            : roll < cut[spec_.mix][2]    ? opHashLookup
                                                          : opHashResize;
            std::uint64_t universe = 2 * std::uint64_t(p.pool);
            if (want == opHashInsert && hashLive_.size() >= p.pool)
                want = hashLive_.empty() ? opHashResize : opHashLookup;
            if ((want == opHashDelete || want == opHashLookup) &&
                hashLive_.empty())
                want = opHashInsert;
            if (want == opHashInsert) {
                std::uint64_t k = 0;
                do {
                    k = 1 + rng.below(universe);
                } while (hashLive_.count(k));
                rec = {opHashInsert, k, rng.next() & 0xffffffffull};
            } else if (want == opHashDelete || want == opHashLookup) {
                auto it = hashLive_.begin();
                std::advance(it, long(rng.below(hashLive_.size())));
                rec = {want, it->first, 0};
            } else {
                rec = {opHashResize, 0, 0};
            }
            break;
          }
          case Kind::Alloc: {
            static constexpr unsigned allocPct[3] = {55, 70, 50};
            bool wantAlloc = rng.below(100) < allocPct[spec_.mix];
            bool canAlloc = read(allocFreeHead(p)) != 0 &&
                            allocLive_.size() < p.handles;
            bool canFree = !allocLive_.empty();
            unsigned op = wantAlloc ? (canAlloc ? opAllocAlloc : opAllocFree)
                                    : (canFree ? opAllocFree : opAllocAlloc);
            if (op == opAllocAlloc) {
                std::uint64_t h = 0;
                do {
                    h = rng.below(p.handles);
                } while (allocLive_.count(h));
                rec = {opAllocAlloc, h, rng.next() & 0xffffffffull};
            } else {
                auto it = allocLive_.begin();
                std::advance(it, long(rng.below(allocLive_.size())));
                rec = {opAllocFree, it->first, 0};
            }
            break;
          }
        }
        ops_.push_back(rec);

        lastWrites_.clear();
        lastInstrumented_ = 0;
        applyOp(rec);
        ++applied_;
        w(p.opsDone, applied_);
        w(p.served, read(p.served) + 1, false);

        txStores += lastInstrumented_;
        if ((i + 1) % spec_.opsPerTx == 0 || i + 1 == spec_.numOps) {
            maxTxStores_ = std::max(maxTxStores_, txStores);
            txStores = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Semantic oracle.

namespace {

std::string
failMsg(const PdsSpec &spec, const std::string &what)
{
    return std::string("pds semantic check [") + spec.toString() + "]: " +
           what;
}

} // namespace

namespace {

std::string
checkSemanticsModel(PdsModel &model, const mem::MemImage &img)
{
    const PdsSpec &spec = model.spec();
    while (model.opsApplied() < model.numOps())
        model.step();
    const PdsParams &p = model.params();

    std::uint64_t done = img.read(p.opsDone);
    if (done != spec.numOps) {
        std::ostringstream os;
        os << "opsDone=" << done << " expected " << spec.numOps;
        return failMsg(spec, os.str());
    }

    std::ostringstream os;
    switch (spec.kind) {
      case Kind::Log: {
        std::uint64_t trim = img.read(logTrimId(p));
        std::uint64_t next = img.read(logNextId(p));
        auto expect = model.liveLog();
        std::map<std::uint64_t, std::uint64_t> got;
        for (unsigned s = 0; s < p.segs; ++s) {
            std::uint64_t u = img.read(logSegUsed(p, s));
            if (u > p.slotsPerSeg) {
                os << "seg " << s << " used " << u << " > " << p.slotsPerSeg;
                return failMsg(spec, os.str());
            }
            for (unsigned j = 0; j < u; ++j) {
                std::uint64_t e = img.read(logSegEntry(p, s, j));
                std::uint64_t id = e >> 32;
                if (id < trim || id >= next)
                    continue;  // dead residue awaiting reclaim
                if (got.count(id)) {
                    os << "duplicate live id " << id;
                    return failMsg(spec, os.str());
                }
                got[id] = e & 0xffffffffull;
            }
        }
        if (got != expect) {
            os << "live log multiset mismatch (" << got.size() << " vs "
               << expect.size() << " live entries)";
            return failMsg(spec, os.str());
        }
        break;
      }

      case Kind::Hash: {
        std::uint64_t t = img.read(hashCurTbl(p));
        std::uint64_t m = img.read(hashMask(p));
        if (t > 1) {
            os << "curTbl=" << t;
            return failMsg(spec, os.str());
        }
        std::uint64_t wantMask = t == 0 ? p.buckets - 1 : 2 * p.buckets - 1;
        if (m != wantMask) {
            os << "mask=" << m << " expected " << wantMask;
            return failMsg(spec, os.str());
        }
        std::map<std::uint64_t, std::uint64_t> got;
        std::set<std::uint64_t> liveNodes;
        for (std::uint64_t b = 0; b <= m; ++b) {
            std::uint64_t cur = img.read(hashBucket(p, unsigned(t), b));
            unsigned bound = p.pool + 1;
            while (cur != 0) {
                if (bound-- == 0) {
                    os << "bucket " << b << " chain cycle/overrun";
                    return failMsg(spec, os.str());
                }
                if (cur > p.pool) {
                    os << "bucket " << b << " node index " << cur
                       << " out of pool";
                    return failMsg(spec, os.str());
                }
                Addr np = hashNode(p, cur - 1);
                std::uint64_t k = img.read(np + 0);
                if (hashOf(k, m) != b) {
                    os << "key " << k << " in wrong bucket " << b;
                    return failMsg(spec, os.str());
                }
                if (!liveNodes.insert(cur).second || got.count(k)) {
                    os << "node/key " << k << " linked twice";
                    return failMsg(spec, os.str());
                }
                got[k] = img.read(np + 8);
                cur = img.read(np + 16);
            }
        }
        if (got != model.liveHash()) {
            os << "live key/value map mismatch (" << got.size() << " vs "
               << model.liveHash().size() << " keys)";
            return failMsg(spec, os.str());
        }
        // Node conservation: free list + live chains = bump allocation.
        std::uint64_t bump = img.read(hashBump(p));
        if (bump > p.pool) {
            os << "bump " << bump << " > pool";
            return failMsg(spec, os.str());
        }
        std::set<std::uint64_t> freeNodes;
        std::uint64_t cur = img.read(hashFree(p));
        unsigned bound = p.pool + 1;
        while (cur != 0) {
            if (bound-- == 0 || cur > p.pool) {
                os << "free list cycle/overrun";
                return failMsg(spec, os.str());
            }
            if (liveNodes.count(cur) || !freeNodes.insert(cur).second) {
                os << "node " << cur << " both free and live (or twice free)";
                return failMsg(spec, os.str());
            }
            cur = img.read(hashNode(p, cur - 1) + 16);
        }
        if (freeNodes.size() + liveNodes.size() != bump) {
            os << "node leak: free " << freeNodes.size() << " + live "
               << liveNodes.size() << " != bump " << bump;
            return failMsg(spec, os.str());
        }
        break;
      }

      case Kind::Alloc: {
        std::set<std::uint64_t> freeBlocks;
        std::uint64_t cur = img.read(allocFreeHead(p));
        unsigned bound = p.blocks + 1;
        while (cur != 0) {
            if (bound-- == 0 || cur > p.blocks) {
                os << "free list cycle/overrun";
                return failMsg(spec, os.str());
            }
            if (!freeBlocks.insert(cur).second) {
                os << "block " << cur << " twice on free list";
                return failMsg(spec, os.str());
            }
            cur = img.read(allocBlock(p, cur - 1) + 0);
        }
        std::map<std::uint64_t, std::uint64_t> got;
        std::set<std::uint64_t> usedBlocks;
        for (unsigned h = 0; h < p.handles; ++h) {
            std::uint64_t idx1 = img.read(allocHandle(p, h));
            if (idx1 == 0)
                continue;
            if (idx1 > p.blocks) {
                os << "handle " << h << " block " << idx1 << " out of range";
                return failMsg(spec, os.str());
            }
            if (freeBlocks.count(idx1)) {
                os << "handle " << h << " points at freed block " << idx1
                   << " (double free / use after free)";
                return failMsg(spec, os.str());
            }
            if (!usedBlocks.insert(idx1).second) {
                os << "block " << idx1 << " aliased by two handles";
                return failMsg(spec, os.str());
            }
            got[h] = img.read(allocBlock(p, idx1 - 1) + 8);
        }
        if (got != model.liveAlloc()) {
            os << "allocated handle/payload map mismatch (" << got.size()
               << " vs " << model.liveAlloc().size() << ")";
            return failMsg(spec, os.str());
        }
        if (freeBlocks.size() + usedBlocks.size() != p.blocks) {
            os << "block leak: free " << freeBlocks.size() << " + used "
               << usedBlocks.size() << " != " << p.blocks;
            return failMsg(spec, os.str());
        }
        break;
      }
    }
    return "";
}

} // namespace

std::string
checkSemantics(const PdsSpec &spec, const mem::MemImage &img)
{
    PdsModel model(spec);
    return checkSemanticsModel(model, img);
}

std::string
checkSemantics(const PdsSpec &spec, const std::vector<PdsOp> &ops,
               const mem::MemImage &img)
{
    PdsModel model(spec, ops);
    return checkSemanticsModel(model, img);
}

// ---------------------------------------------------------------------------
// Crash-prefix oracle.

namespace {

std::string
checkCrashPrefixModel(PdsModel &model, const mem::MemImage &img)
{
    const PdsSpec &spec = model.spec();
    const PdsParams &p = model.params();
    std::size_t words = p.footprintBytes / 8;

    std::uint64_t done = img.read(p.opsDone);
    if (done > spec.numOps) {
        std::ostringstream os;
        os << "pds crash-prefix [" << spec.toString() << "]: opsDone "
           << done << " > numOps " << spec.numOps;
        return os.str();
    }

    // Materialize the image's heap window once.
    std::vector<std::uint64_t> got(words);
    for (std::size_t i = 0; i < words; ++i)
        got[i] = img.read(p.base + Addr(i) * 8);

    // Candidate = initial data + all stores of the first `done` ops.
    std::vector<std::uint64_t> cand(words, 0);
    for (const auto &kv : model.initialData())
        cand[(kv.first - p.base) / 8] = kv.second;
    model.reset();
    for (unsigned i = 0; i < done; ++i) {
        for (const PdsWrite &wr : model.step())
            cand[(wr.addr - p.base) / 8] = wr.val;
    }

    if (cand == got)
        return "";  // cut exactly at the op boundary

    if (done < spec.numOps) {
        // Try every store-stream cut inside op `done` (the gated WPQ
        // commits region prefixes; the op's own opsDone update cannot
        // have committed or the counter would read done+1).
        const auto &writes = model.step();
        for (std::size_t j = 0; j < writes.size(); ++j) {
            cand[(writes[j].addr - p.base) / 8] = writes[j].val;
            if (cand == got)
                return "";
        }
    }

    std::ostringstream os;
    os << "pds crash-prefix [" << spec.toString() << "]: PM image is not "
       << "initial+prefix of the store stream at opsDone=" << done;
    return os.str();
}

} // namespace

std::string
checkCrashPrefix(const PdsSpec &spec, const mem::MemImage &img)
{
    PdsModel model(spec);
    return checkCrashPrefixModel(model, img);
}

std::string
checkCrashPrefix(const PdsSpec &spec, const std::vector<PdsOp> &ops,
                 const mem::MemImage &img)
{
    PdsModel model(spec, ops);
    return checkCrashPrefixModel(model, img);
}

} // namespace pds
} // namespace lwsp
