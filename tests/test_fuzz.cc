/**
 * @file
 * Fuzzer self-tests: spec-string round-trips, clean campaigns on both
 * program sources, and the fault-injection path — a deliberately broken
 * release ordering must be caught by an oracle, shrunk, and reproduced
 * exactly from the reported spec string — plus planted pds bugs caught
 * by the structure oracles.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.hh"
#include "fuzz/campaign.hh"

using namespace lwsp;
using namespace lwsp::fuzz;

namespace {

CaseSpec
parseOk(const std::string &s)
{
    CaseSpec spec;
    std::string err;
    EXPECT_TRUE(CaseSpec::parse(s, spec, err)) << s << ": " << err;
    return spec;
}

} // namespace

TEST(FuzzSpec, RoundTripsCampaignSpec)
{
    CaseSpec spec;
    spec.source = CaseSpec::Source::Ir;
    spec.seed = 12345;
    spec.shrink = 3;
    CaseSpec back = parseOk(spec.toString());
    EXPECT_EQ(back.toString(), spec.toString());
    EXPECT_EQ(back.source, CaseSpec::Source::Ir);
    EXPECT_EQ(back.seed, 12345u);
    EXPECT_EQ(back.shrink, 3u);
    EXPECT_EQ(back.mode, CrashMode::None);
    EXPECT_FALSE(back.fault);
}

TEST(FuzzSpec, RoundTripsEveryCrashMode)
{
    CaseSpec spec;
    spec.source = CaseSpec::Source::Workload;
    spec.seed = 7;
    spec.fault = true;

    spec.mode = CrashMode::Single;
    spec.crashAt = 4242;
    CaseSpec single = parseOk(spec.toString());
    EXPECT_EQ(single.mode, CrashMode::Single);
    EXPECT_EQ(single.crashAt, 4242u);
    EXPECT_TRUE(single.fault);

    spec.mode = CrashMode::DoubleRecovery;
    spec.crashAt2 = 99;
    CaseSpec dblrec = parseOk(spec.toString());
    EXPECT_EQ(dblrec.mode, CrashMode::DoubleRecovery);
    EXPECT_EQ(dblrec.crashAt2, 99u);

    spec.mode = CrashMode::DoubleDrain;
    spec.drainIters = 2;
    CaseSpec dbldrain = parseOk(spec.toString());
    EXPECT_EQ(dbldrain.mode, CrashMode::DoubleDrain);
    EXPECT_EQ(dbldrain.drainIters, 2u);
}

TEST(FuzzSpec, RejectsMalformedSpecs)
{
    CaseSpec spec;
    std::string err;
    EXPECT_FALSE(CaseSpec::parse("", spec, err));
    EXPECT_FALSE(CaseSpec::parse("lwsp-fuzz:v2:wl:seed=1", spec, err));
    EXPECT_FALSE(CaseSpec::parse("lwsp-fuzz:v1:xx:seed=1", spec, err));
    EXPECT_FALSE(
        CaseSpec::parse("lwsp-fuzz:v1:wl:seed=1:bogus=3", spec, err));
    EXPECT_FALSE(err.empty());

    // Numbers are plain decimal that fit their field: no trailing text,
    // sign or silent wrap onto another case.
    for (const char *bad :
         {"lwsp-fuzz:v1:wl:seed=5x", "lwsp-fuzz:v1:wl:seed=-1",
          "lwsp-fuzz:v1:pds:seed=1:mcs=4294967298",
          "lwsp-fuzz:v1:wl:seed=1:shrink=4294967296",
          "lwsp-fuzz:v1:wl:seed=1:mode=single:crash=12x",
          "lwsp-fuzz:v1:wl:seed=1:mode=dbl-rec:crash=1:crash2=",
          "lwsp-fuzz:v1:wl:seed=1:mode=dbl-drain:crash=1:drain=-1",
          "lwsp-fuzz:v1:wl:seed=1:mode=single:crash=48:fault=no",
          "lwsp-fuzz:v1:wl:seed=1:mode=single:crash=48:fault=2"}) {
        err.clear();
        EXPECT_FALSE(CaseSpec::parse(bad, spec, err)) << bad;
        EXPECT_NE(err.find("bad value in"), std::string::npos)
            << bad << ": " << err;
    }
}

TEST(FuzzSpec, RoundTripsMachineShapeTokens)
{
    CaseSpec spec;
    spec.source = CaseSpec::Source::Pds;
    spec.seed = 9;

    // Default shape: no mcs=/topo= tokens, so pre-scale-out specs and
    // their reproducers are unchanged byte-for-byte.
    std::string plain = spec.toString();
    EXPECT_EQ(plain.find(":mcs="), std::string::npos) << plain;
    EXPECT_EQ(plain.find(":topo="), std::string::npos) << plain;

    spec.mcs = 65;
    spec.topo.kind = noc::TopologyConfig::Kind::Tree;
    spec.topo.radix = 4;
    std::string s = spec.toString();
    EXPECT_NE(s.find(":mcs=65"), std::string::npos) << s;
    EXPECT_NE(s.find(":topo=tree4"), std::string::npos) << s;
    CaseSpec back = parseOk(s);
    EXPECT_EQ(back.mcs, 65u);
    EXPECT_TRUE(back.topo.isTree());
    EXPECT_EQ(back.topo.radix, 4u);
    EXPECT_EQ(back.toString(), s);

    std::string err;
    EXPECT_FALSE(
        CaseSpec::parse("lwsp-fuzz:v1:pds:seed=9:mcs=0", back, err));
    EXPECT_FALSE(
        CaseSpec::parse("lwsp-fuzz:v1:pds:seed=9:topo=ring4", back, err));
}

// The scale-out path end-to-end: a pds crash campaign pinned to a
// 65-MC radix-4 tree (past the old uint64_t delivery-mask boundary)
// must mine, crash, recover and oracle-check cleanly through exactly
// the spec machinery a reproducer would use.
TEST(FuzzCampaign, PdsCampaignPassesOn65McTree)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Pds;
    spec.seed = 1;
    spec.mcs = 65;
    spec.topo.kind = noc::TopologyConfig::Kind::Tree;
    spec.topo.radix = 4;
    auto res = runCampaign(spec);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GE(res.pointsTried, 4u);
    EXPECT_GT(res.oracleChecks, 0u);
}

TEST(FuzzCampaign, WorkloadCampaignPassesCleanly)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Workload;
    spec.seed = 1;
    auto res = runCampaign(spec);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GE(res.pointsTried, 8u);
    EXPECT_GT(res.runsExecuted, res.pointsTried);  // golden + recoveries
    EXPECT_GT(res.oracleChecks, 0u);
}

TEST(FuzzCampaign, IrCampaignPassesCleanly)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Ir;
    spec.seed = 1;
    auto res = runCampaign(spec);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GE(res.pointsTried, 8u);
    EXPECT_GT(res.oracleChecks, 0u);
}

TEST(FuzzCampaign, FaultInjectionIsCaughtShrunkAndReplayable)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Workload;
    spec.seed = 1;
    spec.fault = true;  // MC releases WPQ entries ahead of the boundary

    auto res = runCampaign(spec);
    ASSERT_FALSE(res.passed)
        << "early-release fault escaped every oracle";
    EXPECT_NE(res.failure.find("oracle"), std::string::npos)
        << "fault was not caught by an invariant oracle: "
        << res.failure;

    // The reproducer pins a concrete injection and keeps the fault knob.
    ASSERT_NE(res.reproducer.mode, CrashMode::None);
    EXPECT_TRUE(res.reproducer.fault);

    // Replaying the reported spec string reproduces the failure...
    CaseSpec replay = parseOk(res.reproducer.toString());
    auto rep = runCampaign(replay);
    EXPECT_FALSE(rep.passed) << "reproducer did not reproduce";

    // ...and the same injection without the fault knob is clean,
    // pinning the failure on the fault rather than the crash point.
    replay.fault = false;
    auto clean = runCampaign(replay);
    EXPECT_TRUE(clean.passed) << clean.failure;
}

// A double-recovery point whose second failure lands past the end of the
// recovered run never fires that failure: the point survived exactly
// one power failure, not two.
TEST(FuzzCampaign, DoubleRecoveryPastTheEndSurvivesOneFailure)
{
    setLogQuiet(true);
    CaseSpec probe = parseOk("lwsp-fuzz:v1:wl:seed=3:shrink=2:mode=single"
                             ":crash=0");
    auto golden = runCampaign(probe);
    ASSERT_TRUE(golden.passed) << golden.failure;
    ASSERT_GT(golden.goldenCycles, 2u);

    CaseSpec spec = parseOk(
        "lwsp-fuzz:v1:wl:seed=3:shrink=2:mode=dbl-rec:crash=" +
        std::to_string(golden.goldenCycles / 2) +
        ":crash2=" + std::to_string(golden.goldenCycles * 10));
    auto res = runCampaign(spec);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_EQ(res.recoveredExact + res.recoveredDegraded, 1u);
    EXPECT_EQ(res.failuresSurvived, 1u);
}

// Planted pds bugs fail a campaign through their own oracle: an
// ordering bug (broken=1) through the crash-prefix check of a victim
// image, a semantic bug (broken=2) through the golden run's structure
// walk. Each reproducer replays to the same failure.
TEST(FuzzCampaign, PlantedPdsBugsFailThroughTheirOracles)
{
    setLogQuiet(true);
    const std::string base =
        "lwsp-fuzz:v1:pds:seed=3:shrink=0:pds=hash,sz=0,ops=24,mix=0,"
        "pseed=5,broken=";
    const struct
    {
        const char *broken;
        const char *oracle;
    } planted[] = {{"1", "victim pds crash-prefix ["},
                   {"2", "golden pds semantic check ["}};
    for (const auto &p : planted) {
        auto res = runCampaign(parseOk(base + p.broken));
        ASSERT_FALSE(res.passed) << "broken=" << p.broken;
        EXPECT_EQ(res.failure.rfind(p.oracle, 0), 0u) << res.failure;

        auto rep = runCampaign(parseOk(res.reproducer.toString()));
        EXPECT_FALSE(rep.passed) << res.reproducer.toString();
        EXPECT_EQ(rep.failure.rfind(p.oracle, 0), 0u) << rep.failure;
    }
}
