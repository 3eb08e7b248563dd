/**
 * @file
 * Memory substrate tests: functional image, set-associative cache with
 * LRU and the buffer-snooping victim policies.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/mem_image.hh"

using namespace lwsp;
using namespace lwsp::mem;

// ---- MemImage -----------------------------------------------------------

TEST(MemImage, ReadWriteRoundTrip)
{
    MemImage m;
    EXPECT_EQ(m.read(0x1000), 0u);  // untouched reads as zero
    m.write(0x1000, 0xdeadbeef);
    EXPECT_EQ(m.read(0x1000), 0xdeadbeefu);
    m.write(0x1000, 1);
    EXPECT_EQ(m.read(0x1000), 1u);
}

TEST(MemImage, UnalignedAccessPanics)
{
    MemImage m;
    EXPECT_THROW(m.read(0x1001), PanicError);
    EXPECT_THROW(m.write(0x1004, 1), PanicError);
}

TEST(MemImage, CloneIsDeep)
{
    MemImage a;
    a.write(0x2000, 7);
    MemImage b = a.clone();
    b.write(0x2000, 9);
    EXPECT_EQ(a.read(0x2000), 7u);
    EXPECT_EQ(b.read(0x2000), 9u);
}

TEST(MemImage, DiffFindsBothDirections)
{
    MemImage a, b;
    a.write(0x1000, 1);       // only in a
    b.write(0x555000, 2);     // only in b (different page)
    a.write(0x3000, 3);
    b.write(0x3000, 4);       // differs
    auto diffs = a.diff(b, 100);
    EXPECT_EQ(diffs.size(), 3u);
}

TEST(MemImage, DiffInRangeFilters)
{
    MemImage a, b;
    a.write(0x1000, 1);
    a.write(0x9000, 2);
    auto diffs = a.diffInRange(b, 0x8000, 0xa000);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0], 0x9000u);
}

// The range filter is exact: 5000 differing words outside [lo, hi) must
// not crowd out the one inside it, for any of 64 page placements and
// whichever was written first. Capping the whole-image diff before
// filtering to the range would miss it.
TEST(MemImage, DiffInRangeIsExactBehindManyOutOfRangeDiffs)
{
    for (bool inRangeFirst : {false, true}) {
        for (Addr k = 0; k < 64; ++k) {
            SCOPED_TRACE("placement " + std::to_string(k) +
                         (inRangeFirst ? " (written first)" : ""));
            MemImage a, b;
            Addr lo = (0x40 + k) << MemImage::pageShift;
            if (inRangeFirst)
                a.write(lo + 8, 1);
            for (Addr i = 0; i < 5000; ++i)
                a.write(0x100000 + i * 8, i + 1);
            if (!inRangeFirst)
                a.write(lo + 8, 1);
            auto diffs = a.diffInRange(b, lo, lo + 4096);
            ASSERT_EQ(diffs.size(), 1u);
            EXPECT_EQ(diffs[0], lo + 8);
        }
    }
}

TEST(MemImage, DiffIsAscendingAndCapped)
{
    MemImage a, b;
    a.write(0x555000, 1);
    b.write(0x3008, 2);
    a.write(0x1000, 3);
    b.write(0x1010, 4);
    EXPECT_EQ(a.diff(b), (std::vector<Addr>{0x1000, 0x1010, 0x3008,
                                            0x555000}));
    EXPECT_EQ(a.diff(b, 2), (std::vector<Addr>{0x1000, 0x1010}));
    // Range bounds: lo inclusive, hi exclusive.
    EXPECT_EQ(a.diffInRange(b, 0x1010, 0x3008),
              (std::vector<Addr>{0x1010}));
}

TEST(MemImage, EqualImagesHaveNoDiff)
{
    MemImage a;
    for (Addr addr = 0; addr < 4096; addr += 8)
        a.write(0x7000 + addr, addr);
    MemImage b = a.clone();
    EXPECT_TRUE(a.diff(b).empty());
}

// ---- Cache -----------------------------------------------------------------

namespace {

CacheConfig
smallCache(unsigned assoc = 2)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;  // 16 lines
    cfg.assoc = assoc;
    cfg.latency = 4;
    return cfg;
}

} // namespace

TEST(Cache, HitAfterFill)
{
    Cache c("t", smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1038, false).hit);  // same 64B line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c("t", smallCache(2));
    // Set has 2 ways; three conflicting lines (set stride = 8 lines).
    Addr a = 0x0000, b = 0x0200, d = 0x0400;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);    // a most recent
    c.access(d, false);    // evicts b
    EXPECT_TRUE(c.present(a));
    EXPECT_FALSE(c.present(b));
    EXPECT_TRUE(c.present(d));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c("t", smallCache(1));
    auto r1 = c.access(0x0000, true);
    EXPECT_FALSE(r1.evictedDirty);
    auto r2 = c.access(0x0400, false);  // conflicts, evicts dirty line
    EXPECT_TRUE(r2.evictedDirty);
    EXPECT_EQ(r2.evictedLine, 0x0000u);
}

TEST(Cache, InvalidateDropsLine)
{
    Cache c("t", smallCache());
    c.access(0x3000, true);
    EXPECT_TRUE(c.present(0x3000));
    c.invalidate(0x3000);
    EXPECT_FALSE(c.present(0x3000));
    c.access(0x3000, false);
    c.invalidateAll();
    EXPECT_FALSE(c.present(0x3000));
}

TEST(Cache, FullPolicyDivertsConflictingVictim)
{
    Cache c("t", smallCache(2));
    Addr protected_line = 0x0000;
    c.setEvictionFilter(VictimPolicy::Full, [&](Addr line) {
        return line != protected_line;
    });
    c.access(0x0000, true);   // dirty, protected
    c.access(0x0200, true);   // dirty
    auto r = c.access(0x0400, false);  // must not evict 0x0000
    EXPECT_FALSE(r.blocked);
    EXPECT_TRUE(r.victimDiverted);
    EXPECT_TRUE(c.present(protected_line));
    EXPECT_FALSE(c.present(0x0200));
    EXPECT_GE(c.bufferConflicts(), 1u);
    EXPECT_EQ(c.divertedVictims(), 1u);
}

TEST(Cache, ZeroPolicyBlocksOnConflict)
{
    Cache c("t", smallCache(2));
    c.setEvictionFilter(VictimPolicy::Zero, [](Addr) { return false; });
    c.access(0x0000, true);
    c.access(0x0200, true);
    auto r = c.access(0x0400, false);
    EXPECT_TRUE(r.blocked);
    EXPECT_FALSE(c.present(0x0400));
}

TEST(Cache, ZeroPolicyOnlyBlocksDirtyVictims)
{
    Cache c("t", smallCache(2));
    c.setEvictionFilter(VictimPolicy::Zero, [](Addr) { return false; });
    c.access(0x0000, false);  // clean
    c.access(0x0200, false);  // clean
    auto r = c.access(0x0400, false);  // clean victims evict freely
    EXPECT_FALSE(r.blocked);
}

TEST(Cache, HalfPolicyScansHalfTheWays)
{
    Cache c("t", smallCache(4));
    // All four ways dirty and vetoed: Half scans 2, fails -> blocked.
    c.setEvictionFilter(VictimPolicy::Half, [](Addr) { return false; });
    for (Addr a : {0x0000, 0x0400, 0x0800, 0x0c00})
        c.access(a, true);
    auto r = c.access(0x1000, false);
    EXPECT_TRUE(r.blocked);
}

TEST(Cache, NonePolicyIgnoresFilter)
{
    Cache c("t", smallCache(2));
    c.setEvictionFilter(VictimPolicy::None, [](Addr) { return false; });
    c.access(0x0000, true);
    c.access(0x0200, true);
    auto r = c.access(0x0400, false);
    EXPECT_FALSE(r.blocked);
    EXPECT_EQ(c.bufferConflicts(), 0u);
}

TEST(Cache, MissRateAndReset)
{
    Cache c("t", smallCache());
    c.access(0x0000, false);
    c.access(0x0000, false);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.hits() + c.misses(), 0u);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1000;  // not divisible into sets
    cfg.assoc = 3;
    EXPECT_THROW(Cache("bad", cfg), PanicError);
}
