/**
 * @file
 * Failure-storm resilience tests: the re-entrancy contracts behind
 * System::runWithFailureStorm and the storm fuzz mode.
 *
 *  - FailureSchedule string form round-trips (it rides fuzz replay
 *    specs, so print -> parse -> print must be a fixpoint).
 *  - A drain interrupted at any quiescence boundary is invisible: the
 *    post-drain PM image is bit-identical to an uninterrupted drain's.
 *  - recoverChecked is idempotent — a recovery preamble killed by a
 *    second failure re-validates the same image to the same verdict.
 *  - A failure landing exactly on a checkpoint-epoch commit tick (mined
 *    from the golden run's LRPO oracle) still recovers exactly.
 *  - pmtx: crashing the recovered machine mid-undo-replay leaves the
 *    rollback itself recoverable (absolute old-values, so replaying a
 *    replayed prefix is idempotent).
 *  - Storm chains are engine-independent: the event-driven and
 *    cycle-stepped cores produce bit-identical storm lifetimes.
 *  - The storm walker reproduces each campaign crash mode's explicit
 *    crash/recover call sequence bit for bit.
 *  - One reduced crash-at-every-Nth-cycle-of-recovery matrix case and a
 *    small seeded storm campaign run clean end to end.
 */

#include <gtest/gtest.h>

#include "core/storm_walk.hh"
#include "core/system.hh"
#include "fault/storm.hh"
#include "fuzz/campaign.hh"
#include "fuzz/recovery_matrix.hh"
#include "pds/pds.hh"

using namespace lwsp;

namespace {

pds::PdsSpec
smallSpec(pds::Kind k)
{
    pds::PdsSpec spec;
    spec.kind = k;
    spec.sizeClass = 0;
    spec.numOps = 24;
    spec.mix = 0;
    spec.seed = 5;
    spec.opsPerTx = 2;
    return spec;
}

struct Built
{
    core::SystemConfig cfg;
    std::vector<pds::PdsOp> ops;
    compiler::CompiledProgram prog;
};

Built
build(pds::PdsScheme scheme, const pds::PdsSpec &spec)
{
    Built b{pds::makePdsConfig(scheme, pds::PdsRunMode::Recovery),
            pds::generateOps(spec), {}};
    b.prog = pds::preparePdsProgram(spec, b.ops, scheme,
                                    pds::PdsRunMode::Recovery);
    return b;
}

} // namespace

TEST(FailureSchedule, RoundTripIsFixpoint)
{
    for (const char *s :
         {"", "r", "d0", "d3", "x1500", "d1+r+x1500+d0", "r+r+x1",
          "x10+x20+d2+r"}) {
        fault::FailureSchedule sched;
        std::string err;
        ASSERT_TRUE(fault::FailureSchedule::parse(s, sched, err))
            << s << ": " << err;
        EXPECT_EQ(sched.toString(), s);
        fault::FailureSchedule again;
        ASSERT_TRUE(
            fault::FailureSchedule::parse(sched.toString(), again, err));
        EXPECT_EQ(again, sched);
    }
}

TEST(FailureSchedule, RejectsMalformed)
{
    fault::FailureSchedule sched;
    std::string err;
    for (const char *s : {"q", "d", "x", "d1+", "+r", "x-3", "r5", "dx1"})
        EXPECT_FALSE(fault::FailureSchedule::parse(s, sched, err)) << s;
}

TEST(FailureSchedule, RandomIsDeterministic)
{
    auto a = fault::FailureSchedule::random(42, 4, 1000);
    auto b = fault::FailureSchedule::random(42, 4, 1000);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 4u);
    // The exec-gap cap is honoured.
    for (const auto &e : a.events) {
        if (e.phase == fault::FailurePhase::Exec) {
            EXPECT_GE(e.at, 1u);
            EXPECT_LE(e.at, 1000u);
        }
    }
    EXPECT_NE(fault::FailureSchedule::random(43, 4, 1000), a);
}

TEST(FuzzSpec, StormRoundTrips)
{
    fuzz::CaseSpec spec;
    spec.source = fuzz::CaseSpec::Source::Workload;
    spec.seed = 7;
    spec.shrink = 2;
    spec.mode = fuzz::CrashMode::Storm;
    spec.crashAt = 1234;
    std::string err;
    ASSERT_TRUE(
        fault::FailureSchedule::parse("d1+r+x1500+d0", spec.storm, err));

    std::string s = spec.toString();
    EXPECT_NE(s.find(":mode=storm:"), std::string::npos) << s;
    EXPECT_NE(s.find(":storm=d1+r+x1500+d0"), std::string::npos) << s;

    fuzz::CaseSpec parsed;
    ASSERT_TRUE(fuzz::CaseSpec::parse(s, parsed, err)) << err;
    EXPECT_EQ(parsed.mode, fuzz::CrashMode::Storm);
    EXPECT_EQ(parsed.crashAt, 1234u);
    EXPECT_EQ(parsed.storm, spec.storm);
    EXPECT_EQ(parsed.toString(), s);
}

// A §IV-F drain interrupted after any number of quiescence iterations —
// including zero — must leave the same PM image as a clean drain: the
// battery-backed WPQ survives, the resumed drain finishes the job, and
// the interrupted progress is invisible.
TEST(Storm, DrainInterruptsAreInvisible)
{
    auto b = build(pds::PdsScheme::LightWsp, smallSpec(pds::Kind::Log));
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);
    Tick at = gres.cycles / 2;

    core::System clean(b.cfg, b.prog, 1);
    ASSERT_FALSE(clean.runWithPowerFailure(at).completed);

    for (std::vector<unsigned> iters :
         {std::vector<unsigned>{0}, {1}, {2, 0}, {1, 1, 1}}) {
        core::System stormy(b.cfg, b.prog, 1);
        ASSERT_FALSE(stormy.runWithFailureStorm(at, iters).completed);
        EXPECT_TRUE(stormy.pmImage()
                        .diffInRange(clean.pmImage(), 0, ~Addr(0))
                        .empty())
            << iters.size() << " drain interrupts changed the image";
    }
}

// The same invisibility contract on a sharded 8-MC machine, flat and
// tree fabric: interrupting the quiescence loop while broadcasts/ACK
// aggregates are mid-flight on many controllers (or mid-descent through
// interior tree nodes) must not perturb the drained image.
TEST(Storm, DrainInterruptsAreInvisibleAt8Mcs)
{
    for (bool tree : {false, true}) {
        auto b = build(pds::PdsScheme::LightWsp,
                       smallSpec(pds::Kind::Log));
        b.cfg.numMcs = 8;
        if (tree)
            b.cfg.topology.kind = noc::TopologyConfig::Kind::Tree;
        core::System golden(b.cfg, b.prog, 1);
        auto gres = golden.run();
        ASSERT_TRUE(gres.completed);
        Tick at = gres.cycles / 2;

        core::System clean(b.cfg, b.prog, 1);
        ASSERT_FALSE(clean.runWithPowerFailure(at).completed);

        for (std::vector<unsigned> iters :
             {std::vector<unsigned>{0}, {1}, {2, 0}, {1, 1, 1}}) {
            core::System stormy(b.cfg, b.prog, 1);
            ASSERT_FALSE(stormy.runWithFailureStorm(at, iters)
                             .completed);
            EXPECT_TRUE(stormy.pmImage()
                            .diffInRange(clean.pmImage(), 0, ~Addr(0))
                            .empty())
                << (tree ? "tree" : "flat") << " fabric: "
                << iters.size() << " drain interrupts changed the image";
        }
    }
}

TEST(Storm, RecoveryReentryIsIdempotent)
{
    auto b = build(pds::PdsScheme::Capri, smallSpec(pds::Kind::Hash));
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);

    core::System victim(b.cfg, b.prog, 1);
    ASSERT_FALSE(victim.runWithPowerFailure(gres.cycles / 2).completed);

    auto first = core::System::recoverChecked(
        b.cfg, b.prog, 1, victim.pmImage(), {}, &victim.crashReport());
    auto second = core::System::recoverChecked(
        b.cfg, b.prog, 1, victim.pmImage(), {}, &victim.crashReport());
    EXPECT_EQ(first.outcome, second.outcome);
    ASSERT_NE(first.outcome, core::RecoveryOutcome::DetectedUnrecoverable);

    // Both recovered machines replay to the same end state.
    auto r1 = first.sys->run();
    auto r2 = second.sys->run();
    ASSERT_TRUE(r1.completed);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_TRUE(first.sys->pmImage()
                    .diffInRange(second.sys->pmImage(), 0, ~Addr(0))
                    .empty());
}

// Crash exactly on checkpoint-epoch commit ticks mined from the golden
// run's LRPO oracle — the cycle the commit advance becomes visible is
// the sharpest edge of the protocol.
TEST(Storm, FailureExactlyAtCommitTick)
{
    auto spec = smallSpec(pds::Kind::Log);
    auto b = build(pds::PdsScheme::LightWsp, spec);
    b.cfg.oraclesEnabled = true;
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);
    ASSERT_NE(golden.oracle(), nullptr);
    auto commits = golden.oracle()->commitTicks();
    ASSERT_FALSE(commits.empty());

    unsigned tried = 0;
    for (std::size_t i = 0; i < commits.size() && tried < 6;
         i += std::max<std::size_t>(1, commits.size() / 6), ++tried) {
        Tick t = std::min(commits[i], gres.cycles - 1);
        core::System victim(b.cfg, b.prog, 1);
        if (victim.runWithPowerFailure(t).completed)
            continue;
        auto rec = core::System::recoverChecked(
            b.cfg, b.prog, 1, victim.pmImage(), {},
            &victim.crashReport());
        ASSERT_NE(rec.outcome,
                  core::RecoveryOutcome::DetectedUnrecoverable)
            << "commit-tick crash at " << t << ": " << rec.detail;
        ASSERT_TRUE(rec.sys->run().completed);
        EXPECT_EQ(pds::checkSemantics(spec, b.ops, rec.sys->execImage()),
                  "")
            << "commit-tick crash at " << t;
    }
    EXPECT_GT(tried, 0u);
}

// pmtx rollback is itself crash-consistent: kill the recovered machine
// a handful of cycles after power-on — mid-undo-replay — and recover
// again. Undo entries hold absolute old values, so replaying an
// already-replayed prefix is idempotent.
TEST(Storm, PmtxCrashMidUndoReplay)
{
    auto spec = smallSpec(pds::Kind::Hash);
    auto b = build(pds::PdsScheme::Pmtx, spec);
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);

    core::System victim(b.cfg, b.prog, 1);
    ASSERT_FALSE(victim.runWithPowerFailure(gres.cycles * 6 / 10)
                     .completed);

    for (Tick mid : {Tick(1), Tick(3), Tick(7), Tick(15), Tick(40)}) {
        auto rec = core::System::recoverChecked(
            b.cfg, b.prog, 1, victim.pmImage(), {},
            &victim.crashReport());
        ASSERT_NE(rec.outcome,
                  core::RecoveryOutcome::DetectedUnrecoverable);
        auto rr = rec.sys->runWithPowerFailure(mid);
        if (rr.completed)
            continue; // replay + rest of tape fit under `mid` cycles
        auto rec2 = core::System::recoverChecked(
            b.cfg, b.prog, 1, rec.sys->pmImage(), {},
            &rec.sys->crashReport());
        ASSERT_NE(rec2.outcome,
                  core::RecoveryOutcome::DetectedUnrecoverable)
            << "mid-undo-replay crash at +" << mid << ": " << rec2.detail;
        ASSERT_TRUE(rec2.sys->run().completed);
        EXPECT_EQ(pds::checkSemantics(spec, b.ops, rec2.sys->execImage()),
                  "")
            << "mid-undo-replay crash at +" << mid;
    }
}

// The discrete-event and cycle-stepped cores must agree on an entire
// storm lifetime, boot for boot and bit for bit.
TEST(Storm, EngineABBitIdentity)
{
    auto spec = smallSpec(pds::Kind::Alloc);
    fault::FailureSchedule storm;
    std::string err;
    ASSERT_TRUE(fault::FailureSchedule::parse("d1+r+x200+d0+x90", storm,
                                              err));

    // Runs the whole storm chain, returning each segment's cycle count
    // and leaving the final image in `final_img`.
    auto lifetime = [&](SimEngine engine, mem::MemImage &final_img) {
        auto b = build(pds::PdsScheme::LightWsp, spec);
        b.cfg.engine = engine;
        core::System golden(b.cfg, b.prog, 1);
        auto gres = golden.run();
        std::vector<Tick> segs{gres.cycles};

        std::size_t pos = 0;
        core::System victim(b.cfg, b.prog, 1);
        auto vr = victim.runWithFailureStorm(gres.cycles / 2,
                                             storm.takeDrains(pos));
        EXPECT_FALSE(vr.completed);
        segs.push_back(vr.cycles);

        auto walk = core::recoverThroughStorm(victim, b.cfg, b.prog, 1,
                                              {}, storm, pos);
        EXPECT_EQ(walk.error, "");
        EXPECT_NE(walk.outcome,
                  core::RecoveryOutcome::DetectedUnrecoverable);
        EXPECT_TRUE(walk.result.completed);
        segs.insert(segs.end(), walk.segmentCycles.begin(),
                    walk.segmentCycles.end());
        EXPECT_EQ(pds::checkSemantics(spec, b.ops, walk.sys->execImage()),
                  "");
        final_img = walk.sys->pmImage();
        return segs;
    };

    mem::MemImage event_img, cycle_img;
    auto event_segs = lifetime(SimEngine::Event, event_img);
    auto cycle_segs = lifetime(SimEngine::Cycle, cycle_img);
    EXPECT_EQ(event_segs, cycle_segs);
    EXPECT_TRUE(event_img.diffInRange(cycle_img, 0, ~Addr(0)).empty());
}

// Every campaign crash mode is a schedule for the walker: each mode's
// explicit crash/recover call sequence, written out here as the
// reference, and the walker fed CaseSpec::schedule() agree on segment
// cycles, verdict tallies, failures survived and the final PM image.
TEST(Storm, WalkerMatchesExplicitCrashModes)
{
    auto b = build(pds::PdsScheme::LightWsp, smallSpec(pds::Kind::Hash));
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);
    const Tick crash_at = gres.cycles / 2;
    const Tick gap = gres.cycles / 8;

    struct Lifetime
    {
        std::vector<Tick> segs;
        unsigned exact = 0, degraded = 0, unrecoverable = 0;
        unsigned failures = 0;
        mem::MemImage img;
    };
    auto recover = [&](const core::System &from, Lifetime &life) {
        auto rec = core::System::recoverChecked(
            b.cfg, b.prog, 1, from.pmImage(), {}, &from.crashReport());
        switch (rec.outcome) {
          case core::RecoveryOutcome::Recovered: ++life.exact; break;
          case core::RecoveryOutcome::RecoveredDegraded:
            ++life.degraded;
            break;
          case core::RecoveryOutcome::DetectedUnrecoverable:
            ++life.unrecoverable;
            break;
        }
        EXPECT_NE(rec.sys, nullptr);
        return std::move(rec.sys);
    };
    auto finish = [](core::System &sys, Lifetime &life) {
        auto r = sys.run();
        EXPECT_TRUE(r.completed);
        life.segs.push_back(r.cycles);
        life.img = sys.pmImage();
    };

    fuzz::CaseSpec pt;
    pt.crashAt = crash_at;
    pt.crashAt2 = gap;
    pt.drainIters = 1;
    std::string err;
    ASSERT_TRUE(fault::FailureSchedule::parse(
        "d1+r+x" + std::to_string(gap) + "+d0", pt.storm, err));

    for (auto mode : {fuzz::CrashMode::Single, fuzz::CrashMode::DoubleDrain,
                      fuzz::CrashMode::DoubleRecovery,
                      fuzz::CrashMode::Storm}) {
        pt.mode = mode;
        SCOPED_TRACE(pt.toString());
        core::System victim(b.cfg, b.prog, 1);
        Lifetime ref;
        switch (mode) {
          case fuzz::CrashMode::Single: {
            ref.segs.push_back(victim.runWithPowerFailure(crash_at).cycles);
            finish(*recover(victim, ref), ref);
            ref.failures = 1;
            break;
          }
          case fuzz::CrashMode::DoubleDrain: {
            ref.segs.push_back(
                victim.runWithFailureStorm(crash_at, {1}).cycles);
            finish(*recover(victim, ref), ref);
            ref.failures = 2;
            break;
          }
          case fuzz::CrashMode::DoubleRecovery: {
            ref.segs.push_back(victim.runWithPowerFailure(crash_at).cycles);
            auto rec = recover(victim, ref);
            auto rr = rec->runWithPowerFailure(gap);
            ASSERT_FALSE(rr.completed);
            ref.segs.push_back(rr.cycles);
            finish(*recover(*rec, ref), ref);
            ref.failures = 2;
            break;
          }
          case fuzz::CrashMode::Storm: {
            ref.segs.push_back(
                victim.runWithFailureStorm(crash_at, {1}).cycles);
            recover(victim, ref);  // killed by the `r` event
            auto rec = recover(victim, ref);
            auto rr = rec->runWithFailureStorm(gap, {0});
            ASSERT_FALSE(rr.completed);
            ref.segs.push_back(rr.cycles);
            finish(*recover(*rec, ref), ref);
            ref.failures = 5;
            break;
          }
          case fuzz::CrashMode::None:
            break;
        }

        fault::FailureSchedule sched = pt.schedule();
        std::size_t pos = 0;
        core::System wvictim(b.cfg, b.prog, 1);
        Lifetime got;
        got.segs.push_back(
            wvictim.runWithFailureStorm(crash_at, sched.takeDrains(pos))
                .cycles);
        auto walk = core::recoverThroughStorm(wvictim, b.cfg, b.prog, 1,
                                              {}, sched, pos);
        ASSERT_EQ(walk.error, "");
        ASSERT_TRUE(walk.result.completed);
        got.segs.insert(got.segs.end(), walk.segmentCycles.begin(),
                        walk.segmentCycles.end());
        got.exact = walk.recoveredExact;
        got.degraded = walk.recoveredDegraded;
        got.unrecoverable = walk.detectedUnrecoverable;
        got.failures = walk.failures;
        got.img = walk.sys->pmImage();
        EXPECT_EQ(walk.sys->failuresSurvived(), walk.failures);

        EXPECT_EQ(got.segs, ref.segs);
        EXPECT_EQ(got.exact, ref.exact);
        EXPECT_EQ(got.degraded, ref.degraded);
        EXPECT_EQ(got.unrecoverable, ref.unrecoverable);
        EXPECT_EQ(got.failures, ref.failures);
        EXPECT_TRUE(got.img.diffInRange(ref.img, 0, ~Addr(0)).empty());
    }
}

// One reduced crash-at-every-Nth-cycle-of-recovery matrix case; the
// exhaustive step-1 sweep over all 23 cases (incl. the 16-MC flat/tree
// scale-out rows) is `fuzz_crash --recovery-matrix` (tier-2 storm job /
// bench_all.sh --storm).
TEST(Storm, ReducedRecoveryMatrixCase)
{
    auto cases = fuzz::recoveryMatrixCases();
    ASSERT_GE(cases.size(), 21u);
    fuzz::MatrixOptions opt;
    opt.step = 37;
    auto res = fuzz::runRecoveryMatrixCase(cases[0], opt);
    EXPECT_TRUE(res.passed) << res.name << ": " << res.failure;
    EXPECT_GT(res.pointsTried, 0u);
    EXPECT_GT(res.recoveredExact + res.recoveredDegraded, 0u);
}

TEST(Storm, SeededCampaignSurvives)
{
    fuzz::CaseSpec spec;
    spec.source = fuzz::CaseSpec::Source::Workload;
    spec.seed = 3;
    spec.shrink = 2;
    fuzz::CampaignOptions opt;
    opt.minCrashPoints = 4;
    opt.doubleCrash = false;
    opt.stormCrash = true;
    auto res = fuzz::runCampaign(spec, opt);
    EXPECT_TRUE(res.passed)
        << res.failure << " repro: " << res.reproducer.toString();
    EXPECT_GE(res.failuresSurvived, 2u);
}
