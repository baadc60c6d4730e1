/**
 * @file
 * Tests for the D1/LL cache simulator and the branch model.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "cg/branch_sim.hh"
#include "cg/cache_sim.hh"
#include "support/rng.hh"

namespace sigil::cg {

/** Name a geometry in failure messages instead of dumping its bytes. */
void
PrintTo(const CacheConfig &c, std::ostream *os)
{
    *os << c.sizeBytes << " B, " << c.associativity << "-way, "
        << c.lineBytes << " B lines";
}

namespace {

TEST(CacheLevel, ColdMissesThenHits)
{
    CacheLevel l(CacheConfig{1024, 2, 64}); // 8 sets, 2-way
    EXPECT_FALSE(l.accessLine(0));
    EXPECT_TRUE(l.accessLine(0));
    EXPECT_EQ(l.misses(), 1u);
    EXPECT_EQ(l.accesses(), 2u);
}

TEST(CacheLevel, LruEvictsOldest)
{
    // 1 set, 2 ways: lines 0, 8, 16 all map to set 0 with 8 sets? Use a
    // cache with a single set to force conflicts: size 128, assoc 2,
    // line 64 → 1 set.
    CacheLevel l(CacheConfig{128, 2, 64});
    EXPECT_FALSE(l.accessLine(1));
    EXPECT_FALSE(l.accessLine(2));
    EXPECT_TRUE(l.accessLine(1));  // 1 is MRU now
    EXPECT_FALSE(l.accessLine(3)); // evicts 2
    EXPECT_TRUE(l.accessLine(1));
    EXPECT_FALSE(l.accessLine(2)); // 2 was evicted
}

TEST(CacheLevel, DistinctSetsDoNotConflict)
{
    CacheLevel l(CacheConfig{512, 1, 64}); // 8 sets, direct-mapped
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_FALSE(l.accessLine(i));
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_TRUE(l.accessLine(i));
}

TEST(CacheLevel, DirectMappedConflict)
{
    CacheLevel l(CacheConfig{512, 1, 64}); // 8 sets
    EXPECT_FALSE(l.accessLine(0));
    EXPECT_FALSE(l.accessLine(8)); // same set, evicts 0
    EXPECT_FALSE(l.accessLine(0));
    EXPECT_EQ(l.misses(), 3u);
}

TEST(CacheSim, LineCrossingTouchesBothLines)
{
    CacheSim sim;
    CacheAccessResult r = sim.access(60, 8); // spans lines 0 and 1
    EXPECT_EQ(r.d1Misses, 2u);
    EXPECT_EQ(r.llMisses, 2u);
    r = sim.access(60, 8);
    EXPECT_EQ(r.d1Misses, 0u);
}

TEST(CacheSim, LlCatchesD1Evictions)
{
    // Tiny D1 (2 lines, direct-mapped via assoc 1), huge LL.
    CacheSim sim(CacheConfig{128, 1, 64}, CacheConfig{1 << 20, 16, 64});
    sim.access(0, 4);        // D1 miss, LL miss
    sim.access(128, 4);      // same D1 set, evicts; LL miss
    CacheAccessResult r = sim.access(0, 4); // D1 miss again, LL hit
    EXPECT_EQ(r.d1Misses, 1u);
    EXPECT_EQ(r.llMisses, 0u);
}

TEST(CacheSim, ZeroSizeAccessIsFree)
{
    CacheSim sim;
    CacheAccessResult r = sim.access(100, 0);
    EXPECT_EQ(r.d1Misses, 0u);
    EXPECT_EQ(sim.d1().accesses(), 0u);
}

TEST(CacheSim, SequentialStreamMissesOncePerLine)
{
    CacheSim sim;
    unsigned misses = 0;
    for (vg::Addr a = 0; a < 64 * 100; a += 8)
        misses += sim.access(a, 8).d1Misses;
    EXPECT_EQ(misses, 100u);
}

/** Property: miss count never exceeds access count, hits + misses add. */
class CacheProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CacheProperty, CountsAreConsistent)
{
    CacheSim sim(CacheConfig{4096, 4, 64}, CacheConfig{65536, 8, 64});
    sigil::Rng rng(GetParam());
    for (int i = 0; i < 5000; ++i)
        sim.access(rng.nextBounded(1 << 16), 1 + rng.nextBounded(8));
    EXPECT_LE(sim.d1().misses(), sim.d1().accesses());
    EXPECT_LE(sim.ll().misses(), sim.ll().accesses());
    // Every LL access corresponds to a D1 miss.
    EXPECT_EQ(sim.ll().accesses(), sim.d1().misses());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(CacheLevel, DirtyEvictionCountsWriteBack)
{
    CacheLevel l(CacheConfig{128, 2, 64}); // 1 set, 2 ways
    l.accessLine(1, true);  // dirty
    l.accessLine(2, false); // clean
    EXPECT_EQ(l.writeBacks(), 0u);
    l.accessLine(3, false); // evicts line 1 (LRU, dirty)
    EXPECT_EQ(l.writeBacks(), 1u);
    EXPECT_TRUE(l.lastAccessWroteBack());
    EXPECT_EQ(l.lastWriteBackLine(), 1u);
}

TEST(CacheLevel, CleanEvictionHasNoWriteBack)
{
    CacheLevel l(CacheConfig{128, 2, 64});
    l.accessLine(1, false);
    l.accessLine(2, false);
    l.accessLine(3, false);
    EXPECT_EQ(l.writeBacks(), 0u);
    EXPECT_FALSE(l.lastAccessWroteBack());
}

TEST(CacheLevel, WriteHitDirtiesLine)
{
    CacheLevel l(CacheConfig{128, 2, 64});
    l.accessLine(1, false); // clean install
    l.accessLine(1, true);  // dirtied by write hit
    l.accessLine(2, false);
    l.accessLine(3, false); // evicts 1
    EXPECT_EQ(l.writeBacks(), 1u);
}

/**
 * Test-side reference level with the timestamp rule of the earlier
 * parallel-array layout: a stamp per way bumped on every touch, and a
 * miss fills the first invalid way, else the way with the oldest
 * stamp (lowest index on ties).
 */
class StampLevel
{
  public:
    explicit StampLevel(const CacheConfig &c)
        : assoc_(c.associativity),
          sets_(c.sizeBytes / c.lineBytes / c.associativity),
          ways_(sets_ * assoc_)
    {}

    struct Outcome
    {
        bool hit;
        bool wroteBack;
        std::uint64_t writeBackLine;
    };

    Outcome
    access(std::uint64_t line, bool is_write)
    {
        const std::uint64_t set = line % sets_;
        const std::uint64_t tag = line / sets_;
        Way *ways = &ways_[set * assoc_];
        Way *victim = nullptr;
        for (unsigned w = 0; w < assoc_; ++w) {
            Way &way = ways[w];
            if (way.valid && way.tag == tag) {
                way.stamp = ++stamp_;
                way.dirty = way.dirty || is_write;
                return {true, false, 0};
            }
            if (victim == nullptr ||
                (victim->valid &&
                 (!way.valid || way.stamp < victim->stamp)))
                victim = &way;
        }
        Outcome out{false, victim->valid && victim->dirty, 0};
        if (out.wroteBack)
            out.writeBackLine = victim->tag * sets_ + set;
        *victim = Way{tag, ++stamp_, true, is_write};
        return out;
    }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
        bool dirty = false;
    };

    unsigned assoc_;
    std::uint64_t sets_;
    std::vector<Way> ways_;
    std::uint64_t stamp_ = 0;
};

class LruOracle : public ::testing::TestWithParam<CacheConfig>
{};

TEST_P(LruOracle, EveryAccessMatchesTheTimestampRule)
{
    const CacheConfig geom = GetParam();
    for (std::uint64_t seed : {1, 2, 3}) {
        CacheLevel level(geom);
        StampLevel ref(geom);
        sigil::Rng rng(seed);
        const std::uint64_t sets = level.numSets();
        // A few hot sets, each cycling through twice its ways, so hits,
        // LRU evictions and dirty victims all recur; plus scattered
        // lines over the whole address space.
        std::vector<std::uint64_t> hot(16);
        for (std::uint64_t &h : hot)
            h = rng.nextBounded(sets);
        std::uint64_t hits = 0, write_backs = 0;
        for (int i = 0; i < 100000; ++i) {
            std::uint64_t line;
            if (rng.nextBounded(4) != 0)
                line = hot[rng.nextBounded(hot.size())] +
                       sets * rng.nextBounded(2 * geom.associativity);
            else
                line = rng.next() >> 6;
            const bool is_write = rng.nextBounded(3) == 0;
            const StampLevel::Outcome want = ref.access(line, is_write);
            ASSERT_EQ(level.accessLine(line, is_write), want.hit)
                << "seed " << seed << " access " << i;
            ASSERT_EQ(level.lastAccessWroteBack(), want.wroteBack)
                << "seed " << seed << " access " << i;
            if (want.wroteBack) {
                ASSERT_EQ(level.lastWriteBackLine(), want.writeBackLine)
                    << "seed " << seed << " access " << i;
            }
            hits += want.hit;
            write_backs += want.wroteBack;
        }
        EXPECT_EQ(level.accesses(), 100000u);
        EXPECT_EQ(level.misses(), 100000u - hits);
        EXPECT_EQ(level.writeBacks(), write_backs);
        // The stream must exercise every path it is meant to check.
        EXPECT_GT(hits, 0u);
        EXPECT_GT(write_backs, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruOracle,
    ::testing::Values(CacheConfig{512, 1, 64},            // direct-mapped
                      CacheConfig{512, 2, 64},            // 2-way, 4 sets
                      CacheConfig{32 * 1024, 8, 64},      // D1
                      CacheConfig{8 * 1024 * 1024, 16, 64} // LL
                      ),
    [](const ::testing::TestParamInfo<CacheConfig> &info) {
        return std::to_string(info.param.sizeBytes) + "B_" +
               std::to_string(info.param.associativity) + "way";
    });

TEST(CacheSim, D1WriteBacksReachLl)
{
    // Tiny D1 so dirty lines spill; LL sees the write-back traffic.
    CacheSim sim(CacheConfig{128, 1, 64}, CacheConfig{1 << 20, 16, 64});
    sim.access(0, 8, true);    // dirty line 0 in D1
    sim.access(128, 8, false); // same set: evicts dirty line 0
    EXPECT_EQ(sim.d1().writeBacks(), 1u);
    // LL accesses: line 0 (miss fill), write-back of 0, line 2 fill.
    EXPECT_EQ(sim.ll().accesses(), 3u);
}

TEST(CacheConfigValidation, RejectsNonPowerOfTwo)
{
    EXPECT_EXIT(CacheLevel l(CacheConfig{1000, 2, 60}),
                ::testing::ExitedWithCode(1), "");
}

TEST(BranchSim, LearnsStableDirection)
{
    BranchSim b;
    int mispredicts = 0;
    for (int i = 0; i < 100; ++i)
        mispredicts += b.record(1, true) ? 1 : 0;
    EXPECT_LE(mispredicts, 2);
}

TEST(BranchSim, AlternatingPatternMispredicts)
{
    BranchSim b;
    int mispredicts = 0;
    for (int i = 0; i < 100; ++i)
        mispredicts += b.record(1, (i & 1) != 0) ? 1 : 0;
    EXPECT_GE(mispredicts, 40);
}

TEST(BranchSim, ContextsAreIndependent)
{
    BranchSim b;
    for (int i = 0; i < 10; ++i) {
        b.record(1, true);
        b.record(2, false);
    }
    EXPECT_FALSE(b.record(1, true));
    EXPECT_FALSE(b.record(2, false));
}

} // namespace
} // namespace sigil::cg
