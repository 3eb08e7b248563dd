#include "mem_controller.hh"

#include <string>

#include "mem/oracle.hh"
#include "noc/noc.hh"
#include "trace/sink.hh"

namespace lwsp {
namespace mem {

MemController::MemController(McId id, const McConfig &cfg, MemImage &pm,
                             noc::Noc &noc_net)
    : Clocked("mc" + std::to_string(id)), id_(id), cfg_(cfg), pm_(pm),
      noc_(noc_net), wpq_(cfg.wpqEntries),
      dramCache_("mc" + std::to_string(id) + ".dramcache", cfg.dramCache),
      wpqOccupancy_(0, static_cast<double>(cfg.wpqEntries + 1), 32)
{
    LWSP_ASSERT(cfg.numMcs >= 1, "bad MC count");
    LWSP_ASSERT(id < cfg.numMcs, "MC id out of range");
    // A one-leaf tree has no fabric to aggregate over: degrade to flat,
    // mirroring the Noc's own single-MC degradation.
    if (cfg_.numMcs <= 1)
        cfg_.treeAcks = false;
    peersAll_.reset(cfg_.numMcs);
    for (McId mc = 0; mc < cfg_.numMcs; ++mc) {
        if (mc != id_)
            peersAll_.set(mc);
    }
}

bool
MemController::ready(RegionId r) const
{
    if (r < flushId_)
        return true;  // already committed (state erased)
    auto it = regions_.find(r);
    if (it == regions_.end() || !it->second.bdryArrived)
        return false;
    return bdryAcksComplete(it->second);
}

bool
MemController::canAccept(const PersistEntry &e) const
{
    if (!cfg_.gatingEnabled)
        return !wpq_.full();
    if (!wpq_.full())
        return true;
    // Deadlock fallback: the draining region's own stores may softly
    // overflow so its boundary can eventually arrive.
    return fallbackActive_ && e.region == drainCursor_;
}

void
MemController::accept(const PersistEntry &e, Tick now)
{
    bool overflow = wpq_.full();
    LWSP_ASSERT(canAccept(e), "accept() without canAccept()");
    wpq_.push(e, overflow);
    if (overflow)
        ++overflowEvents_;
    maxWpqOccupancy_ = std::max(maxWpqOccupancy_, wpq_.size());
    wpqOccupancy_.sample(static_cast<double>(wpq_.size()));
    if (cfg_.oracle) {
        cfg_.oracle->onAccept(id_, e, wpq_.size(), cfg_.wpqEntries,
                              fallbackActive_, now);
    }
    trace::emitIf<trace::Category::Wpq>(
        cfg_.sink,
        {now, trace::EventType::WpqEnqueue,
         static_cast<std::int32_t>(id_), e.thread, e.region, e.addr,
         e.value, wpq_.size()});
    rearm();
}

void
MemController::sendToPeers(McMsg::Type type, RegionId r, Tick now)
{
    McMsg msg;
    msg.type = type;
    msg.region = r;
    msg.from = id_;
    if (cfg_.treeAcks) {
        // One ACK up the aggregation tree; the completed round comes
        // back as the root's BdryAllAcked / FlushAllAcked announcement.
        noc_.ackUp(id_, msg, now);
        return;
    }
    for (McId mc = 0; mc < cfg_.numMcs; ++mc) {
        if (mc != id_)
            noc_.send(mc, msg, now);
    }
}

void
MemController::receive(const McMsg &msg, Tick now)
{
    switch (msg.type) {
      case McMsg::Type::BdryArrival: {
        if (cfg_.oracle)
            cfg_.oracle->onBdryArrival(id_, msg.region, now);
        trace::emitIf<trace::Category::Boundary>(
            cfg_.sink,
            {now, trace::EventType::BoundaryBcastRecv,
             static_cast<std::int32_t>(id_), 0, msg.region, 0, 0,
             msg.from});
        RegionState &st = state(msg.region);
        st.bdryArrived = true;
        st.bdryArrivedAt = now;
        if (bdryAcksComplete(st))
            bcastLatency_.sample(0);
        if (!st.bdryAckSent) {
            st.bdryAckSent = true;
            sendToPeers(McMsg::Type::BdryAck, msg.region, now);
        }
        // Fallback ends once the awaited boundary shows up; the undo log
        // is retained until the region is provably committed (ready).
        if (fallbackActive_ && msg.region == drainCursor_)
            fallbackActive_ = false;
        break;
      }
      case McMsg::Type::BdryAck:
        if (cfg_.oracle)
            cfg_.oracle->onBdryAck(id_, msg.region, msg.from);
        trace::emitIf<trace::Category::Boundary>(
            cfg_.sink,
            {now, trace::EventType::BoundaryAck,
             static_cast<std::int32_t>(id_), 0, msg.region, 0, 0,
             msg.from});
        {
            RegionState &st = state(msg.region);
            bool was_complete = bdryAcksComplete(st);
            st.bdryAcks.set(msg.from);
            if (!was_complete && st.bdryArrived &&
                bdryAcksComplete(st)) {
                bcastLatency_.sample(
                    static_cast<double>(now - st.bdryArrivedAt));
            }
        }
        break;
      case McMsg::Type::FlushAck:
        state(msg.region).flushAcks.set(msg.from);
        maybeAdvanceFlushId(now);
        break;
      case McMsg::Type::BdryAllAcked: {
        // Tree-fabric root announcement: every MC's bdry-ACK for this
        // region aggregated. Stands in for the flat all-to-all round.
        if (cfg_.oracle)
            cfg_.oracle->onBdryAllAcked(id_, msg.region);
        trace::emitIf<trace::Category::Boundary>(
            cfg_.sink,
            {now, trace::EventType::BoundaryAck,
             static_cast<std::int32_t>(id_), 0, msg.region, 0, 0,
             cfg_.numMcs});
        RegionState &st = state(msg.region);
        bool was_complete = st.allBdryAcked;
        st.allBdryAcked = true;
        if (!was_complete && st.bdryArrived) {
            bcastLatency_.sample(
                static_cast<double>(now - st.bdryArrivedAt));
        }
        break;
      }
      case McMsg::Type::FlushAllAcked:
        state(msg.region).allFlushAcked = true;
        maybeAdvanceFlushId(now);
        break;
    }
    rearm();
}

void
MemController::maybeAdvanceFlushId(Tick now)
{
    while (true) {
        auto it = regions_.find(flushId_);
        if (it == regions_.end())
            break;
        const RegionState &st = it->second;
        if (!st.localFlushDone || !flushAcksComplete(st))
            break;
        regions_.erase(it);
        if (cfg_.oracle)
            cfg_.oracle->onCommit(id_, flushId_, now);
        trace::emitIf<trace::Category::Region>(
            cfg_.sink,
            {now, trace::EventType::RegionPersist,
             static_cast<std::int32_t>(id_), 0, flushId_, 0, 0, 0});
        ++flushId_;
        ++regionsCommitted_;
    }
}

void
MemController::traceEvent(int kind, Addr addr, std::uint64_t value,
                          RegionId region, Tick now)
{
    if (traceHook_)
        traceHook_(kind, addr, value, region);
    if (cfg_.oracle)
        cfg_.oracle->onFlush(id_, kind, addr, value, region, now);
    trace::emitIf<trace::Category::Wpq>(
        cfg_.sink,
        {now, trace::EventType::WpqRelease,
         static_cast<std::int32_t>(id_), 0, region, addr, value,
         trace::packReleaseAux(wpq_.size(), kind)});
}

void
MemController::flushEntryToPm(const PersistEntry &e, bool fallback, Tick now)
{
    ++flushedEntries_;

    auto it = shadows_.find(e.addr);
    if (it != shadows_.end()) {
        // Tainted address: record the write; PM itself only holds the
        // newest-region value (an older in-flight store arriving after a
        // younger fallback write must not clobber it).
        Shadow &sh = it->second;
        sh.writes.emplace_back(e.region, e.value);
        if (fallback)
            ++fallbackFlushes_;
        if (e.region >= sh.maxRegion) {
            sh.maxRegion = e.region;
            shadowPruneQ_.emplace(sh.maxRegion, e.addr);
            traceEvent(fallback ? 1 : 0, e.addr, e.value, e.region, now);
            pm_.write(e.addr, e.value);
        } else {
            traceEvent(2, e.addr, e.value, e.region, now);
        }
        return;
    }

    if (fallback) {
        // First out-of-order write to this address: capture the
        // committed pre-image before tainting it.
        Shadow sh;
        sh.base = pm_.read(e.addr);
        sh.maxRegion = e.region;
        sh.writes.emplace_back(e.region, e.value);
        shadows_.emplace(e.addr, std::move(sh));
        shadowPruneQ_.emplace(e.region, e.addr);
        ++fallbackFlushes_;
    }
    if (!fallback && cfg_.gatingEnabled)
        state(e.region).normalFlushStarted = true;
    traceEvent(fallback ? 1 : 0, e.addr, e.value, e.region, now);
    pm_.write(e.addr, e.value);
}

bool
MemController::truncationHazard(RegionId b) const
{
    // A region >= b already committed: its writes are final by contract.
    if (flushId_ > b)
        return true;
    // A normal flush of a region >= b reached PM directly (not through
    // an undo shadow): that write survives crashFinish regardless of
    // where the drain cursor stops, so truncating before it is unsound.
    for (const auto &[region, st] : regions_) {
        if (region >= b && st.normalFlushStarted)
            return true;
    }
    return false;
}

void
MemController::finishLocalFlush(RegionId r, Tick now)
{
    RegionState &st = state(r);
    if (st.localFlushDone)
        return;
    st.localFlushDone = true;
    st.flushAcks.set(id_);
    trace::emitIf<trace::Category::Wpq>(
        cfg_.sink,
        {now, trace::EventType::WpqDrainDone,
         static_cast<std::int32_t>(id_), 0, r, 0, 0, wpq_.size()});
    sendToPeers(McMsg::Type::FlushAck, r, now);
    maybeAdvanceFlushId(now);
}

void
MemController::tick(Tick now)
{
    if (!cfg_.gatingEnabled) {
        // Plain FIFO persist buffer: drain the head at the PM write rate.
        if (now >= nextDrainTick_ && !wpq_.empty()) {
            for (unsigned b = 0; b < cfg_.drainBurst && !wpq_.empty(); ++b)
                flushEntryToPm(*wpq_.popFront(), false, now);
            nextDrainTick_ = now + cfg_.drainInterval;
        }
        return;
    }

    if (cfg_.oracle) {
        cfg_.oracle->onWpqSample(id_, wpq_.size(), cfg_.wpqEntries,
                                 fallbackActive_, now);
    }

    // Test-only fault injection: push one store of a region whose
    // boundary has not reached us out to PM as if it were a normal
    // in-order flush. A live oracle must flag this as an unclosed-region
    // leak; nothing else in the protocol is perturbed afterwards.
    if (cfg_.faultReleaseEarly && !faultFired_) {
        RegionId victim = wpq_.minRegion();
        auto vit = regions_.find(victim);
        bool arrived = (vit != regions_.end() && vit->second.bdryArrived);
        if (victim != invalidRegion && !arrived) {
            if (auto e = wpq_.popRegion(victim)) {
                faultFired_ = true;
                flushEntryToPm(*e, false, now);
            }
        }
    }

    // Skip past ready regions with no local entries (no drain cost).
    while (ready(drainCursor_) && !wpq_.hasRegion(drainCursor_)) {
        bool may_advance = true;
        if (cfg_.strictFlushAcks)
            may_advance = flushAcksComplete(state(drainCursor_));
        finishLocalFlush(drainCursor_, now);
        if (!may_advance)
            return;
        ++drainCursor_;
        pruneCommittedShadows();
    }

    if (now < nextDrainTick_)
        return;

    RegionId r = drainCursor_;
    if (ready(r)) {
        bool flushed = false;
        for (unsigned b = 0; b < cfg_.drainBurst; ++b) {
            if (auto e = wpq_.popRegion(r)) {
                flushEntryToPm(*e, false, now);
                flushed = true;
            } else {
                break;
            }
        }
        if (flushed)
            nextDrainTick_ = now + cfg_.drainInterval;
        if (!wpq_.hasRegion(r))
            finishLocalFlush(r, now);
        return;
    }

    // Region r is not yet flush-eligible. If the WPQ has filled and r's
    // boundary has not even arrived, the persist paths may be blocked on
    // us: enter the undo-logged overflow fallback (§IV-D). The awaited
    // region's own entries go first; when it has none here, the oldest
    // region present is flushed instead — that is what unblocks the FIFO
    // paths carrying the missing boundary. Entries of the oldest present
    // region can never conflict with an older entry still in this WPQ,
    // and conflicts with late-arriving older in-flight entries are
    // absorbed by the undo pre-image update in flushEntryToPm().
    auto it = regions_.find(r);
    bool bdry_here = (it != regions_.end() && it->second.bdryArrived);
    if (wpq_.full() && !bdry_here) {
        fallbackActive_ = true;
        RegionId victim = wpq_.hasRegion(r) ? r : wpq_.minRegion();
        if (victim != invalidRegion) {
            if (auto e = wpq_.popRegion(victim)) {
                flushEntryToPm(*e, true, now);
                nextDrainTick_ = now + cfg_.drainInterval;
            }
        }
    }
}

Tick
MemController::nextActiveTick(Tick now) const
{
    if (!cfg_.gatingEnabled) {
        // Plain FIFO: the head drains at the next drain slot.
        if (wpq_.empty())
            return maxTick;
        return std::max(now, nextDrainTick_);
    }
    if (cfg_.oracle != nullptr)
        return now;  // tick() samples the oracle every cycle
    if (cfg_.faultReleaseEarly && !faultFired_ && !wpq_.empty())
        return now;  // the injected early release happens in tick()
    if (ready(drainCursor_)) {
        // Entry drains are paced by the drain timer; cursor skips over
        // ready-but-entryless regions (and their flush-ACK exchange)
        // happen unconditionally at the top of tick().
        if (!wpq_.hasRegion(drainCursor_))
            return now;
        return std::max(now, nextDrainTick_);
    }
    // Not ready: only the WPQ-full deadlock fallback (awaited boundary
    // not yet arrived) can make progress, at the next drain slot. Any
    // other transition requires an inbound message or WPQ insertion —
    // external stimuli by the fast-forward contract.
    auto it = regions_.find(drainCursor_);
    bool bdry_here = (it != regions_.end() && it->second.bdryArrived);
    if (wpq_.full() && !bdry_here)
        return std::max(now, nextDrainTick_);
    return maxTick;
}

MemController::LoadResult
MemController::serveLoadMiss(Addr addr, Tick now)
{
    (void)now;
    LoadResult res;
    ++loadMisses_;

    if (cfg_.dramCacheEnabled) {
        auto dc = dramCache_.access(addr, false);
        // Queue behind earlier fetches: DDR bandwidth.
        Tick start = std::max(now, nextDcReadSlot_);
        nextDcReadSlot_ = start + cfg_.dcReadInterval;
        res.latency += (start - now) + dramCache_.latency();
        if (dc.hit) {
            res.dramCacheHit = true;
            return res;
        }
        // Dirty DRAM-cache evictions: silently dropped under WSP (the
        // persist path is the only write path to PM); timing-free here.
    }

    // PM read with the WPQ CAM searched in parallel (§IV-H). The CAM
    // latency (2 cycles) is hidden by the PM access; on a hit the load
    // must wait for the entry to flush and then re-read PM. PM media
    // bandwidth is far below DDR's, so fetches queue harder here.
    Tick pm_start = std::max(now, nextPmReadSlot_);
    nextPmReadSlot_ = pm_start + cfg_.pmReadInterval;
    res.latency += (pm_start - now) + cfg_.pmReadCycles;
    if (cfg_.gatingEnabled && wpq_.search(addr & ~7ull)) {
        res.wpqHit = true;
        ++wpqLoadHits_;
        res.latency += cfg_.pmWriteCycles + cfg_.pmReadCycles;
    }
    return res;
}

bool
MemController::crashStep(Tick now)
{
    // A finished drain is terminal for this power cycle: a re-entered
    // drain loop (failure storm) sees an immediately quiescent MC.
    if (crashFinished_)
        return false;
    // Injected MC stall: the controller makes no progress this
    // quiescence iteration but still reports activity, so the drain loop
    // keeps iterating and completes once the stall budget is absorbed.
    if (stallIters_ > 0) {
        --stallIters_;
        return true;
    }
    bool progress = false;
    while (drainCursor_ < corruptBarrier_ && ready(drainCursor_)) {
        RegionId r = drainCursor_;
        while (auto e = wpq_.popRegion(r)) {
            flushEntryToPm(*e, false, now);
            progress = true;
        }
        if (!state(r).localFlushDone) {
            finishLocalFlush(r, now);
            progress = true;
        }
        ++drainCursor_;
        pruneCommittedShadows();
    }
    return progress;
}

void
MemController::pruneCommittedShadows()
{
    // maxRegion is the max over the shadow's writes, so "every write
    // committed" is exactly "maxRegion < drainCursor_". Pop candidates
    // in maxRegion order; a candidate whose shadow has since seen a
    // newer write (or was already erased) is stale — the newer write
    // pushed its own entry.
    while (!shadowPruneQ_.empty() &&
           shadowPruneQ_.top().first < drainCursor_) {
        Addr addr = shadowPruneQ_.top().second;
        shadowPruneQ_.pop();
        auto it = shadows_.find(addr);
        if (it != shadows_.end() && it->second.maxRegion < drainCursor_) {
            // PM already holds the newest-region (hence newest committed)
            // value; the address is clean again.
            shadows_.erase(it);
        }
    }
}

void
MemController::crashFinish(Tick now)
{
    // Idempotent: shadow resolution and WPQ truncation happen exactly
    // once per power cycle even if an interrupted drain is re-entered.
    if (crashFinished_)
        return;
    crashFinished_ = true;
    // Resolve every fallback-tainted address to the newest write of a
    // committed region — the crash drain advanced the cursor past the
    // committed prefix, so regions >= drainCursor_ are unpersisted and
    // their (possibly chronologically interleaved) writes roll back.
    for (const auto &[addr, sh] : shadows_) {
        std::uint64_t value = sh.base;
        RegionId best = 0;
        bool found = false;
        for (const auto &[region, v] : sh.writes) {
            if (region < drainCursor_ && (!found || region >= best)) {
                best = region;
                value = v;
                found = true;
            }
        }
        traceEvent(3, addr, value, best, now);
        pm_.write(addr, value);
    }
    shadows_.clear();
    shadowPruneQ_ = {};
    wpq_.clear();
    if (cfg_.oracle)
        cfg_.oracle->onCrashFinish(id_, drainCursor_,
                                   detectedUnrecoverable_);
}

} // namespace mem
} // namespace lwsp
