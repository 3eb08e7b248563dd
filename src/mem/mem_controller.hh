/**
 * @file
 * Integrated memory controller with LightWSP's gated, battery-backed WPQ.
 *
 * The controller realises lazy region-level persist ordering (LRPO,
 * paper §III-B/IV-B): it learns the execution order of regions from
 * boundary broadcasts, exchanges bdry-ACKs and flush-ACKs with its peer
 * MCs, and releases WPQ entries to PM strictly in region-ID order. It also
 * owns this channel's DRAM cache (Optane-memory-mode style) and serves
 * LLC load misses with the parallel PM-read + WPQ CAM search of §IV-H.
 *
 * Deadlock resolution (§IV-D): when the WPQ fills while the boundary of
 * the region being drained has not arrived, the controller flushes that
 * region's entries with undo logging and accepts only that region's
 * stores (allowing soft overflow) until the boundary shows up.
 */

#ifndef LWSP_MEM_MEM_CONTROLLER_HH
#define LWSP_MEM_MEM_CONTROLLER_HH

#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "common/bitset.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/mem_image.hh"
#include "mem/persist.hh"
#include "mem/wpq.hh"
#include "sim/clocked.hh"

namespace lwsp {
namespace noc {
class Noc;
} // namespace noc

namespace trace {
class TraceSink;
} // namespace trace

namespace mem {

class LrpoOracle;

struct McConfig
{
    unsigned numMcs = 2;
    std::size_t wpqEntries = 64;
    Tick pmReadCycles = 350;        ///< 175 ns at 2 GHz
    Tick pmWriteCycles = 180;       ///< 90 ns at 2 GHz
    Tick drainInterval = 1;         ///< cycles between WPQ drain rounds
    unsigned drainBurst = 2;        ///< entries flushed per round
    Tick camCycles = 2;             ///< WPQ CAM search (hidden by PM read)
    bool dramCacheEnabled = true;   ///< false models the ideal-PSP baseline
    CacheConfig dramCache{16ull * 1024 * 1024, 1, 100};
    /**
     * Read-bandwidth modelling: minimum cycles between successive line
     * fetches served by the DRAM cache (DDR4) and by PM media. The gap
     * between the two is what makes streaming workloads suffer without a
     * DRAM cache (the PSP-vs-WSP axis of Fig. 9).
     */
    Tick dcReadInterval = 3;        ///< ~38 GB/s DDR4 per MC
    Tick pmReadInterval = 10;       ///< ~13 GB/s Optane reads per MC
    Tick pmWriteInterval = 12;      ///< Optane line-write occupancy per MC
    /**
     * true  = paper-literal commit: region k+1 flushes only after region
     *         k's flush-ACK round completes on every MC;
     * false = relaxed (default): flush k+1 once its bdry-ACKs complete and
     *         all local entries of k are out (crash drain still completes
     *         any fully-arrived region, so consistency is preserved).
     */
    bool strictFlushAcks = false;
    /** false = plain FIFO drain with no region gating (non-WSP schemes). */
    bool gatingEnabled = true;
    /**
     * ACKs ride a tree aggregation fabric (noc/topology.hh): instead of
     * all-to-all peer unicasts the MC hands a single ACK to its leaf
     * uplink (`Noc::ackUp`) and learns round completion from the root's
     * BdryAllAcked / FlushAllAcked announcements. Set by System when the
     * configured topology is a tree with more than one MC; forced off
     * for a single MC (a one-leaf tree degrades to flat).
     */
    bool treeAcks = false;
    /**
     * When non-null, every protocol event (boundary arrival, ACK, WPQ
     * insert, PM release, commit, crash drain) is reported to the LRPO
     * invariant oracle. Null (the default) keeps the hooks zero-cost.
     */
    LrpoOracle *oracle = nullptr;
    /**
     * When non-null, protocol events (WPQ enqueue/release/drain,
     * boundary arrival/ACK, region commit) are emitted to the telemetry
     * sink. Null (the default) keeps the hooks zero-cost, exactly like
     * the oracle pointer above.
     */
    trace::TraceSink *sink = nullptr;
    /**
     * Test-only fault knob: release one store of a not-yet-closed region
     * to PM ahead of its boundary, without undo logging. Exists solely to
     * prove the oracle's ordering checkers are live — never enable
     * outside oracle-liveness tests.
     */
    bool faultReleaseEarly = false;
};

class MemController : public Clocked, public McEndpoint
{
  public:
    MemController(McId id, const McConfig &cfg, MemImage &pm,
                  noc::Noc &noc_net);

    McId id() const { return id_; }

    // ---- Persist-path side -------------------------------------------
    /**
     * @return true if @p e can enter the WPQ this cycle. Full WPQs decline
     * everything except (in deadlock fallback) the draining region's own
     * stores, which may softly overflow.
     */
    bool canAccept(const PersistEntry &e) const;

    /** Insert @p e; caller must have checked canAccept(). */
    void accept(const PersistEntry &e, Tick now);

    // ---- Control plane ------------------------------------------------
    void receive(const McMsg &msg, Tick now) override;

    void tick(Tick now) override;
    Tick nextActiveTick(Tick now) const override;

    // ---- Load path ------------------------------------------------------
    struct LoadResult
    {
        Tick latency = 0;
        bool wpqHit = false;
        bool dramCacheHit = false;
    };

    /** Serve an LLC (L2) miss for @p addr: DRAM cache, then PM + WPQ CAM. */
    LoadResult serveLoadMiss(Addr addr, Tick now);

    /**
     * Account direct PM write-line traffic (ideal-PSP mode: with no DRAM
     * cache, store lines hit the PM device and delay its reads).
     */
    void
    pmWriteTraffic(Tick now)
    {
        nextPmReadSlot_ =
            std::max(now, nextPmReadSlot_) + cfg_.pmWriteInterval;
    }

    // ---- Power failure ---------------------------------------------------
    /**
     * One quiescence iteration of the recovery drain (paper §IV-F steps
     * 2-5): flush every ready region. @return true if progress was made.
     *
     * Re-entrant: the drain cursor and WPQ are battery-backed, so a
     * power failure between iterations simply resumes here — already-
     * drained regions are skipped (the cursor only advances) and a call
     * after crashFinish() reports no progress.
     */
    bool crashStep(Tick now);

    /**
     * Step 6 + undo restore: discard unpersisted entries. Idempotent —
     * a second call is a no-op, so a failure storm that re-runs the
     * drain epilogue cannot roll PM back twice or double-count with the
     * oracle.
     */
    void crashFinish(Tick now = 0);

    // ---- Fault handling (crash-time ECC damage, §IV-F hardening) ---------
    /**
     * Smallest WPQ region with an ECC-damaged entry (bit flip / torn
     * write detected by the battery-backed queue's ECC); invalidRegion
     * when the queue is clean.
     */
    RegionId minDamagedRegion() const { return wpq_.minDamagedRegion(); }

    /**
     * Would truncating the crash drain before region @p b lose writes
     * that already reached PM without undo logging? True when a region
     * >= @p b committed here or had a normal (non-shadowed) flush start:
     * such writes cannot be rolled back, so stopping at @p b would leave
     * PM holding a *partial* suffix — detected-unrecoverable, never a
     * silent truncation.
     */
    bool truncationHazard(RegionId b) const;

    /**
     * Stop the crash drain before region @p b (the globally lowest
     * damaged region): regions >= @p b are discarded as if the power had
     * failed one epoch earlier. @p hazard marks the image unrecoverable
     * (see truncationHazard); the drain still runs so PM lands in a
     * deterministic state, but recovery must refuse the image.
     */
    void
    setCorruptBarrier(RegionId b, bool hazard)
    {
        corruptBarrier_ = std::min(corruptBarrier_, b);
        detectedUnrecoverable_ = detectedUnrecoverable_ || hazard;
    }

    /** Absorb @p iters crash-drain quiescence iterations (MC stall). */
    void setCrashStall(unsigned iters) { stallIters_ = iters; }

    RegionId corruptBarrier() const { return corruptBarrier_; }
    bool detectedUnrecoverable() const { return detectedUnrecoverable_; }

    /** Mutable WPQ access for the fault layer's crash-time damage. */
    Wpq &wpqMutable() { return wpq_; }

    // ---- Introspection ---------------------------------------------------
    RegionId flushId() const { return flushId_; }
    RegionId drainCursor() const { return drainCursor_; }
    const Wpq &wpq() const { return wpq_; }
    Cache &dramCache() { return dramCache_; }
    bool inFallback() const { return fallbackActive_; }

    /**
     * Test/diagnostic hook invoked on every PM-affecting event:
     * kind 0 = normal flush, 1 = fallback flush, 2 = skipped (absorbed
     * into an undo pre-image), 3 = crash undo restore.
     */
    using FlushTraceHook =
        std::function<void(int kind, Addr addr, std::uint64_t value,
                           RegionId region)>;
    void setFlushTraceHook(FlushTraceHook hook)
    {
        traceHook_ = std::move(hook);
    }

    void
    resetStats()
    {
        wpqLoadHits_ = loadMisses_ = flushedEntries_ = 0;
        fallbackFlushes_ = overflowEvents_ = regionsCommitted_ = 0;
        maxWpqOccupancy_ = 0;
        wpqOccupancy_.reset();
        bcastLatency_.reset();
        wpq_.resetStats();
        dramCache_.resetStats();
    }

    std::uint64_t wpqLoadHits() const { return wpqLoadHits_; }
    std::uint64_t loadMisses() const { return loadMisses_; }
    std::uint64_t flushedEntries() const { return flushedEntries_; }
    std::uint64_t fallbackFlushes() const { return fallbackFlushes_; }
    std::uint64_t overflowEvents() const { return overflowEvents_; }
    std::uint64_t regionsCommitted() const { return regionsCommitted_; }
    std::size_t maxWpqOccupancy() const { return maxWpqOccupancy_; }

    /** WPQ occupancy sampled at every enqueue (fig 11/18 input). */
    const stats::Distribution &wpqOccupancy() const
    {
        return wpqOccupancy_;
    }

    /**
     * Cycles from a boundary's arrival at this MC to its full bdry-ACK
     * round (when the region becomes flush-eligible, §IV-B).
     */
    const stats::Distribution &bcastLatency() const
    {
        return bcastLatency_;
    }

  private:
    struct RegionState
    {
        bool bdryArrived = false;
        DynBitset bdryAcks;           ///< per-peer bdry-ACKs (flat fabric)
        DynBitset flushAcks;          ///< flush-ACKs incl. self (flat)
        bool allBdryAcked = false;    ///< root announcement (tree fabric)
        bool allFlushAcked = false;   ///< root announcement (tree fabric)
        bool localFlushDone = false;
        bool bdryAckSent = false;
        Tick bdryArrivedAt = 0;       ///< stats-only (bcastLatency)
        /**
         * A normal (non-undo-logged) flush of this region reached PM.
         * Such writes cannot be rolled back, so a corruption barrier at
         * or below this region is a truncation hazard.
         */
        bool normalFlushStarted = false;
    };

    RegionState &
    state(RegionId r)
    {
        RegionState &st = regions_[r];
        if (st.bdryAcks.size() == 0) {
            st.bdryAcks.reset(cfg_.numMcs);
            st.flushAcks.reset(cfg_.numMcs);
        }
        return st;
    }

    /** All peers' bdry-ACKs plus our own arrival: safe to flush. */
    bool ready(RegionId r) const;

    /** The round is complete: every peer's bdry-ACK has been observed. */
    bool
    bdryAcksComplete(const RegionState &st) const
    {
        return cfg_.treeAcks ? st.allBdryAcked
                             : st.bdryAcks.containsAll(peersAll_);
    }

    /** Every MC's flush-ACK for the region has been observed. */
    bool
    flushAcksComplete(const RegionState &st) const
    {
        return cfg_.treeAcks ? st.allFlushAcked
                             : st.flushAcks.containsAll(peersAll_);
    }

    void sendToPeers(McMsg::Type type, RegionId r, Tick now);

    /** Mark region @p r locally flushed; exchange flush-ACKs; advance. */
    void finishLocalFlush(RegionId r, Tick now);

    void maybeAdvanceFlushId(Tick now);

    /**
     * Release one entry to PM. Fallback flushes are undo-logged; any
     * flush (normal or fallback) of an entry older than a fallback write
     * to the same address updates that write's undo pre-image instead of
     * touching PM, so region-ordered final values and crash restoration
     * both stay correct despite the out-of-order fallback.
     */
    void flushEntryToPm(const PersistEntry &e, bool fallback, Tick now);

    /** Forward a PM-affecting event to the trace hook and the oracle. */
    void traceEvent(int kind, Addr addr, std::uint64_t value,
                    RegionId region, Tick now);

    /**
     * De-taint addresses whose shadow writes are all committed. A shadow
     * is erasable exactly when its maxRegion (the max over its writes'
     * regions) has dropped below the drain cursor, so the candidates are
     * kept in a lazy min-heap keyed by maxRegion: each cursor advance
     * pops only the shadows that just became erasable instead of
     * rescanning every live shadow's write list (the former O(shadows *
     * writes) hot spot that dominated high-thread-count runs). Entries
     * whose shadow has since grown a newer maxRegion are stale and
     * skipped — the growth pushed a fresh entry.
     */
    void pruneCommittedShadows();

    McId id_;
    McConfig cfg_;
    MemImage &pm_;
    noc::Noc &noc_;
    DynBitset peersAll_;  ///< every MC id except our own
    Wpq wpq_;
    Cache dramCache_;

    std::map<RegionId, RegionState> regions_;
    RegionId drainCursor_ = 1;  ///< next region to drain locally
    RegionId flushId_ = 1;      ///< persistent register (committed prefix)
    Tick nextDrainTick_ = 0;
    Tick nextDcReadSlot_ = 0;   ///< DRAM-cache read-bandwidth cursor
    Tick nextPmReadSlot_ = 0;   ///< PM read-bandwidth cursor

    /**
     * Battery-backed shadow of a fallback-tainted address: the pre-taint
     * value plus every subsequent write (region, value) in flush order.
     * At a crash the address resolves to the newest write of a committed
     * region (or the base value when none committed) — uncommitted
     * fallback writes are thereby rolled back and committed writes that
     * were chronologically overtaken are reinstated.
     */
    struct Shadow
    {
        std::uint64_t base = 0;
        RegionId maxRegion = 0;  ///< newest region that reached PM
        std::vector<std::pair<RegionId, std::uint64_t>> writes;
    };

    bool fallbackActive_ = false;
    bool faultFired_ = false;   ///< faultReleaseEarly one-shot latch
    std::map<Addr, Shadow> shadows_;
    /** Prune candidates: (shadow maxRegion at push time, address). */
    std::priority_queue<std::pair<RegionId, Addr>,
                        std::vector<std::pair<RegionId, Addr>>,
                        std::greater<>>
        shadowPruneQ_;

    // Crash-time fault-handling state (inert without fault injection).
    RegionId corruptBarrier_ = invalidRegion;
    bool detectedUnrecoverable_ = false;
    unsigned stallIters_ = 0;
    bool crashFinished_ = false;  ///< crashFinish() already ran

    FlushTraceHook traceHook_;
    stats::Distribution wpqOccupancy_;
    stats::Distribution bcastLatency_{0, 4096, 32};
    std::uint64_t wpqLoadHits_ = 0;
    std::uint64_t loadMisses_ = 0;
    std::uint64_t flushedEntries_ = 0;
    std::uint64_t fallbackFlushes_ = 0;
    std::uint64_t overflowEvents_ = 0;
    std::uint64_t regionsCommitted_ = 0;
    std::size_t maxWpqOccupancy_ = 0;
};

} // namespace mem
} // namespace lwsp

#endif // LWSP_MEM_MEM_CONTROLLER_HH
