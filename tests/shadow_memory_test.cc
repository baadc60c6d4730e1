/**
 * @file
 * Tests for the two-level shadow memory: lazy chunk creation, the
 * lookup cache, the span API, line granularity, the LRU memory limit,
 * the touched bitmap and touched-block init, stamp interning, the lazy
 * cold charge and line-mode access totals, byte accounting, eviction
 * callbacks, the slot pool the hot arrays come from, and the run
 * table of pending re-use runs.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "core/sigil_profiler.hh"
#include "shadow/shadow_memory.hh"
#include "support/rng.hh"
#include "support/serial.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

#include "reference_profiler.hh"
#include "trace_fixtures.hh"

namespace sigil::shadow {
namespace {

/** Writer stamp for a bare context (tests mostly only vary the ctx). */
WriterStamp
ctxStamp(vg::ContextId ctx)
{
    return WriterStamp{0, ctx, 0};
}

/** Intern a bare-context writer stamp in a shadow's own table. */
StampId
ctxId(ShadowMemory &sm, vg::ContextId ctx)
{
    return sm.internWriter(ctxStamp(ctx));
}

/** Adapt a per-unit callback to the run-shaped sweep visitor. */
template <typename Fn>
ShadowMemory::RunVisitor
perUnit(Fn fn)
{
    return [fn](const ShadowMemory::Run &run) mutable {
        for (std::size_t i = 0; i < run.count; ++i)
            fn(run.firstUnit + i, run.hot[i]);
    };
}

/** The writer context recorded for a unit (kInvalidContext if never). */
vg::ContextId
writerCtx(const ShadowMemory &sm, const ShadowHot &o)
{
    return sm.stamps().writer(o.writer).ctx;
}

bool
everWritten(const ShadowHot &o)
{
    return o.writer != 0;
}

/** This process's resident set size in bytes (0 if unreadable). */
std::uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size_pages = 0, resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(ShadowMemory, LookupCreatesChunkOnDemand)
{
    ShadowMemory sm;
    EXPECT_EQ(sm.stats().chunksLive, 0u);
    ShadowHot &o = sm.lookup(100);
    EXPECT_FALSE(everWritten(o));
    EXPECT_EQ(sm.stats().chunksLive, 1u);
    EXPECT_EQ(sm.stats().chunksAllocated, 1u);
}

TEST(ShadowMemory, FindDoesNotCreate)
{
    ShadowMemory sm;
    EXPECT_EQ(sm.find(100), nullptr);
    sm.lookup(100).writer = ctxId(sm, 3);
    ShadowHot *o = sm.find(100);
    ASSERT_NE(o, nullptr);
    EXPECT_EQ(sm.stamps().writer(o->writer).ctx, 3);
    EXPECT_EQ(sm.stats().chunksLive, 1u);
}

TEST(ShadowMemory, FindOfUntouchedBlockIsNull)
{
    // Blocks of 64 units are constructed on first touch: find() must
    // not hand out a unit whose block was never touched, even in a
    // resident chunk.
    ShadowMemory sm;
    sm.lookup(100); // block 1 (units 64..127) of chunk 0
    EXPECT_NE(sm.find(100), nullptr);
    ShadowHot *neighbour = sm.find(101); // same block: constructed, zero
    ASSERT_NE(neighbour, nullptr);
    EXPECT_EQ(neighbour->writer, 0u);
    EXPECT_EQ(neighbour->reader, 0u);
    EXPECT_EQ(sm.find(0), nullptr);   // block 0: never touched
    EXPECT_EQ(sm.find(200), nullptr); // block 3: never touched
    EXPECT_EQ(sm.stats().chunksLive, 1u);
    sm.lookup(5);
    ShadowHot *now = sm.find(0);
    ASSERT_NE(now, nullptr);
    EXPECT_EQ(now->writer, 0u);
}

TEST(ShadowMemory, WritesNeverChargeCold)
{
    // Writes resolve without want_cold: they charge no cold array and
    // byte mode never hands out access totals. The first read that
    // wants cold state charges its chunk once.
    constexpr std::uint64_t kC = ShadowMemory::kChunkUnits;
    ShadowMemory sm;
    const StampId w = ctxId(sm, 1);
    sm.span(0, kC + 200, false, [&](ShadowMemory::Run run) {
        EXPECT_EQ(run.totals, nullptr);
        std::fill(run.hot, run.hot + run.count, ShadowHot{w, 0});
    });
    EXPECT_EQ(sm.stats().coldArraysLive, 0u);
    EXPECT_EQ(sm.liveBytes(),
              2 * ShadowMemory::chunkHotBytes() + sm.stamps().bytes());
    sm.span(kC - 5, kC + 2, true, [](ShadowMemory::Run run) {
        EXPECT_EQ(run.totals, nullptr);
    });
    sm.span(10, 20, true, [](ShadowMemory::Run) {});
    EXPECT_EQ(sm.stats().coldArraysLive, 2u);
    EXPECT_EQ(sm.liveBytes(), 2 * ShadowMemory::chunkHotBytes() +
                                  2 * ShadowMemory::chunkColdBytes() +
                                  sm.stamps().bytes());
    EXPECT_EQ(sm.stats().runsLive, 0u);
}

TEST(ShadowMemory, LineTotalsComeWithTheColdCharge)
{
    // In line mode the cold charge also allocates the chunk's access
    // totals, zeroed; eviction releases both.
    constexpr std::uint64_t kC = ShadowMemory::kChunkUnits;
    ShadowMemory::Config cfg;
    cfg.granularityShift = 6;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    sm.span(0, 300, false, [](ShadowMemory::Run run) {
        EXPECT_EQ(run.totals, nullptr);
    });
    sm.span(60, 130, true, [](ShadowMemory::Run run) {
        ASSERT_NE(run.totals, nullptr);
        EXPECT_EQ(run.count, 71u);
        for (std::size_t i = 0; i < run.count; ++i) {
            EXPECT_EQ(run.totals[i], 0u);
            run.totals[i] = 3;
        }
    });
    // Later runs of the chunk see the totals, written or not.
    sm.span(0, 300, false, [](ShadowMemory::Run run) {
        ASSERT_NE(run.totals, nullptr);
        EXPECT_EQ(run.totals[0], 0u);
        EXPECT_EQ(run.totals[100], 3u);
    });
    sm.span(kC - 5, kC + 2, true, [](ShadowMemory::Run run) {
        ASSERT_NE(run.totals, nullptr);
    });
    EXPECT_EQ(sm.stats().coldArraysLive, 2u);
    sm.lookup(2 * kC); // evicts chunk 0
    EXPECT_EQ(sm.stats().coldArraysLive, 1u);
    sm.span(0, 0, false, [](ShadowMemory::Run run) {
        EXPECT_EQ(run.totals, nullptr); // recreated, uncharged
    });
}

TEST(ShadowMemory, SpanEndsAtTopOfAddressSpace)
{
    // The last unit of the address space: the walk must stop on the
    // run that holds it instead of wrapping around to unit 0.
    ShadowMemory sm;
    const std::uint64_t top = ~std::uint64_t{0};
    const std::uint64_t first = top - ShadowMemory::kChunkUnits - 99;
    std::uint64_t units = 0;
    std::uint64_t next = first;
    sm.span(first, top, /*want_cold=*/true,
            [&](const ShadowMemory::Run &run) {
        EXPECT_EQ(run.firstUnit, next);
        units += run.count;
        next = run.firstUnit + run.count;
    });
    EXPECT_EQ(units, top - first + 1);
    EXPECT_EQ(next, 0u); // one past the top unit
    EXPECT_EQ(sm.stats().chunksLive, 2u);
    EXPECT_NE(sm.find(top), nullptr);
    EXPECT_EQ(sm.find(0), nullptr);
}

TEST(ShadowMemory, StatePersistsAcrossLookups)
{
    ShadowMemory sm;
    sm.lookup(5).writer = ctxId(sm, 42);
    sm.lookup(1 << 20); // different chunk, invalidates lookup cache
    EXPECT_EQ(writerCtx(sm, sm.lookup(5)), 42);
}

TEST(ShadowMemory, InterningIsInjective)
{
    ShadowMemory sm;
    StampId a = ctxId(sm, 1);
    StampId b = ctxId(sm, 2);
    StampId c = ctxId(sm, 1);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, c);
    EXPECT_NE(a, 0u); // 0 is the reserved null stamp
    // Distinct fields yield distinct ids even when the ctx matches.
    StampId d = sm.internWriter(WriterStamp{7, 1, 0});
    StampId f = sm.internWriter(WriterStamp{0, 1, 7});
    EXPECT_EQ((std::set<StampId>{a, d, f}).size(), 3u);
    // Resolution inverts interning.
    EXPECT_EQ(sm.stamps().writer(d).seq, 7u);
    EXPECT_EQ(sm.stamps().writer(f).thread, 7u);
}

TEST(ShadowMemory, NullStampResolvesToNeverWritten)
{
    StampTable t;
    EXPECT_EQ(t.writer(0).ctx, vg::kInvalidContext);
    EXPECT_EQ(t.reader(0).ctx, vg::kInvalidContext);
    // Interning the null tuples returns the reserved id 0.
    EXPECT_EQ(t.internWriter(WriterStamp{}), 0u);
    EXPECT_EQ(t.internReader(ReaderStamp{}), 0u);
}

TEST(ShadowMemory, UnitMappingByteMode)
{
    ShadowMemory sm;
    EXPECT_EQ(sm.unitOf(100), 100u);
    EXPECT_EQ(sm.lastUnitOf(100, 8), 107u);
    EXPECT_EQ(sm.unitBytes(), 1u);
}

TEST(ShadowMemory, UnitMappingLineMode)
{
    ShadowMemory::Config cfg;
    cfg.granularityShift = 6;
    ShadowMemory sm(cfg);
    EXPECT_EQ(sm.unitOf(0), 0u);
    EXPECT_EQ(sm.unitOf(63), 0u);
    EXPECT_EQ(sm.unitOf(64), 1u);
    EXPECT_EQ(sm.lastUnitOf(60, 8), 1u);
    EXPECT_EQ(sm.lastUnitOf(60, 4), 0u);
    EXPECT_EQ(sm.unitBytes(), 64u);
}

TEST(ShadowMemory, DistantAddressesGetDistinctChunks)
{
    ShadowMemory sm;
    sm.lookup(0);
    sm.lookup(ShadowMemory::kChunkUnits);
    sm.lookup(ShadowMemory::kChunkUnits * 100);
    EXPECT_EQ(sm.stats().chunksLive, 3u);
}

TEST(ShadowMemory, PeakTracksHighWater)
{
    ShadowMemory sm;
    for (std::uint64_t c = 0; c < 5; ++c)
        sm.lookup(c * ShadowMemory::kChunkUnits);
    EXPECT_EQ(sm.stats().chunksPeak, 5u);
    // No cold arrays were requested and nothing was interned, so the
    // footprint is exactly five hot arrays (plus bitmaps).
    EXPECT_EQ(sm.peakBytes(), 5u * ShadowMemory::chunkHotBytes());
    EXPECT_EQ(sm.liveBytes(), sm.peakBytes());
}

TEST(ShadowMemory, ColdArrayIsLazyAndAccounted)
{
    ShadowMemory sm;
    sm.lookup(100);
    EXPECT_EQ(sm.stats().coldArraysLive, 0u);
    EXPECT_EQ(sm.liveBytes(), ShadowMemory::chunkHotBytes());

    sm.lookup(100, /*want_cold=*/true);
    EXPECT_EQ(sm.stats().coldArraysLive, 1u);
    EXPECT_EQ(sm.liveBytes(), ShadowMemory::chunkHotBytes() +
                                  ShadowMemory::chunkColdBytes());

    // A chunk is charged once, whichever unit asks.
    sm.lookup(3000, /*want_cold=*/true);
    EXPECT_EQ(sm.stats().coldArraysLive, 1u);
    EXPECT_EQ(sm.liveBytes(), ShadowMemory::chunkHotBytes() +
                                  ShadowMemory::chunkColdBytes());

    // A second chunk without want_cold stays hot-only.
    sm.lookup(ShadowMemory::kChunkUnits * 9);
    EXPECT_EQ(sm.stats().coldArraysLive, 1u);
}

TEST(ShadowMemory, InterningGrowsByteAccounting)
{
    ShadowMemory sm;
    sm.lookup(0);
    const std::uint64_t base = sm.liveBytes();
    ctxId(sm, 1);
    const std::uint64_t one = sm.liveBytes();
    EXPECT_GT(one, base);
    ctxId(sm, 1); // duplicate: no growth
    EXPECT_EQ(sm.liveBytes(), one);
    ctxId(sm, 2);
    EXPECT_GT(sm.liveBytes(), one);
    EXPECT_EQ(sm.liveBytes(), base + sm.stamps().bytes());
}

TEST(ShadowMemory, LimitEvictsLeastRecentlyTouched)
{
    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    sm.lookup(0 * ShadowMemory::kChunkUnits).writer = ctxId(sm, 10);
    sm.lookup(1 * ShadowMemory::kChunkUnits).writer = ctxId(sm, 11);
    sm.lookup(0 * ShadowMemory::kChunkUnits); // touch chunk 0 again
    sm.lookup(2 * ShadowMemory::kChunkUnits); // evicts chunk 1
    EXPECT_EQ(sm.stats().evictions, 1u);
    EXPECT_EQ(sm.stats().chunksLive, 2u);
    // Chunk 0 survived with its state; chunk 1's state is gone.
    EXPECT_EQ(sm.stamps().writer(sm.find(0)->writer).ctx, 10);
    EXPECT_EQ(sm.find(ShadowMemory::kChunkUnits), nullptr);
}

TEST(ShadowMemory, EvictionReleasesBytes)
{
    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    sm.lookup(0 * ShadowMemory::kChunkUnits, /*want_cold=*/true);
    sm.lookup(1 * ShadowMemory::kChunkUnits);
    const std::uint64_t peak = sm.liveBytes();
    sm.lookup(2 * ShadowMemory::kChunkUnits); // evicts the cold chunk
    EXPECT_EQ(sm.stats().coldArraysLive, 0u);
    EXPECT_EQ(sm.liveBytes(),
              peak - ShadowMemory::chunkColdBytes());
    EXPECT_EQ(sm.peakBytes(), peak);
}

TEST(ShadowMemory, LruOrderSurvivesManyInterleavedTouches)
{
    // Exercise the intrusive recency list beyond the pairwise case:
    // re-touch chunks in a scrambled order and verify evictions follow
    // exactly that order.
    constexpr std::uint64_t kC = ShadowMemory::kChunkUnits;
    ShadowMemory::Config cfg;
    cfg.maxChunks = 4;
    ShadowMemory sm(cfg);
    std::vector<std::uint64_t> evicted;
    sm.setEvictionHandler(perUnit([&](std::uint64_t unit, ShadowHot &) {
        evicted.push_back(unit / kC);
    }));
    const StampId w = ctxId(sm, 1);
    for (std::uint64_t c = 0; c < 4; ++c)
        sm.lookup(c * kC).writer = w; // LRU order 0,1,2,3
    sm.lookup(1 * kC);                    // order 0,2,3,1
    sm.lookup(0 * kC);                    // order 2,3,1,0
    sm.lookup(4 * kC).writer = w;     // evicts 2
    sm.lookup(5 * kC).writer = w;     // evicts 3
    sm.lookup(6 * kC).writer = w;     // evicts 1
    sm.lookup(7 * kC).writer = w;     // evicts 0
    EXPECT_EQ(evicted, (std::vector<std::uint64_t>{2, 3, 1, 0}));
    EXPECT_EQ(sm.stats().evictions, 4u);
}

TEST(ShadowMemory, EvictionHandlerSeesOnlyTouchedUnits)
{
    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    std::set<std::uint64_t> evicted_units;
    sm.setEvictionHandler(perUnit([&](std::uint64_t unit, ShadowHot &) {
        evicted_units.insert(unit);
    }));
    sm.lookup(7).writer = ctxId(sm, 1);
    sm.lookup(9); // touched but never written — still reported
    sm.lookup(ShadowMemory::kChunkUnits + 3).writer = ctxId(sm, 1);
    sm.lookup(2 * ShadowMemory::kChunkUnits); // evicts the oldest chunk
    EXPECT_EQ(evicted_units, (std::set<std::uint64_t>{7, 9}));
}

TEST(ShadowMemory, SweepsYieldMaximalTouchedRuns)
{
    // Touched runs inside one chunk, crossing bitmap word boundaries
    // and ending at the chunk's last unit; a run never spans chunks.
    constexpr std::uint64_t kC = ShadowMemory::kChunkUnits;
    ShadowMemory sm;
    auto touch = [&](std::uint64_t first, std::uint64_t last) {
        sm.span(first, last, false, [](ShadowMemory::Run) {});
    };
    touch(0, 0);
    touch(60, 130);
    touch(132, 132);
    touch(kC - 5, kC + 2);
    std::vector<std::pair<std::uint64_t, std::size_t>> runs;
    sm.forEach([&](const ShadowMemory::Run &run) {
        runs.push_back({run.firstUnit, run.count});
    });
    EXPECT_EQ(runs, (std::vector<std::pair<std::uint64_t, std::size_t>>{
                        {0, 1}, {60, 71}, {132, 1}, {kC - 5, 5}, {kC, 3}}));
}

TEST(ShadowMemory, EvictedChunkRecreatedFresh)
{
    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    sm.lookup(0).writer = ctxId(sm, 99);
    sm.lookup(ShadowMemory::kChunkUnits);
    sm.lookup(2 * ShadowMemory::kChunkUnits); // evicts chunk of unit 0
    ShadowHot &o = sm.lookup(0);              // recreated
    EXPECT_FALSE(everWritten(o));
    EXPECT_EQ(sm.stats().chunksAllocated, 4u);
}

TEST(ShadowMemory, ForEachVisitsOnlyTouchedUnits)
{
    ShadowMemory sm;
    sm.lookup(1).writer = ctxId(sm, 1);
    sm.lookup(ShadowMemory::kChunkUnits + 2).writer = ctxId(sm, 2);
    sm.lookup(ShadowMemory::kChunkUnits + 5); // touched, default state
    std::vector<std::uint64_t> seen;
    int written = 0;
    sm.forEach(perUnit([&](std::uint64_t unit, ShadowHot &o) {
        seen.push_back(unit);
        if (everWritten(o))
            ++written;
    }));
    EXPECT_EQ(written, 2);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{
                        1, ShadowMemory::kChunkUnits + 2,
                        ShadowMemory::kChunkUnits + 5}));
}

TEST(ShadowMemory, ForEachIsSortedByBaseRegardlessOfCreationOrder)
{
    constexpr std::uint64_t kC = ShadowMemory::kChunkUnits;
    ShadowMemory sm;
    // Create chunks in scrambled order; the sweep must be ascending.
    const StampId w = ctxId(sm, 1);
    for (std::uint64_t c : {9ull, 2ull, 31ull, 0ull, 17ull, 5ull})
        sm.lookup(c * kC + 1).writer = w;
    std::vector<std::uint64_t> order;
    sm.forEach(perUnit([&](std::uint64_t unit, ShadowHot &) {
        order.push_back(unit);
    }));
    std::vector<std::uint64_t> expect{1,          2 * kC + 1,  5 * kC + 1,
                                      9 * kC + 1, 17 * kC + 1, 31 * kC + 1};
    EXPECT_EQ(order, expect);
}

TEST(ShadowMemory, SpanYieldsChunkClampedRuns)
{
    constexpr std::uint64_t kC = ShadowMemory::kChunkUnits;
    ShadowMemory sm;
    const StampId w = ctxId(sm, 7);
    // A span crossing two chunk boundaries decomposes into three runs.
    std::vector<std::pair<std::uint64_t, std::size_t>> runs;
    sm.span(kC - 3, 2 * kC + 4, false, [&](ShadowMemory::Run run) {
        runs.push_back({run.firstUnit, run.count});
        EXPECT_EQ(run.totals, nullptr); // byte mode
        std::fill(run.hot, run.hot + run.count, ShadowHot{w, 0});
    });
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0], (std::pair<std::uint64_t, std::size_t>{kC - 3, 3}));
    EXPECT_EQ(runs[1], (std::pair<std::uint64_t, std::size_t>{kC, kC}));
    EXPECT_EQ(runs[2],
              (std::pair<std::uint64_t, std::size_t>{2 * kC, 5}));
    // Every unit of the span (and only those) is written and touched.
    EXPECT_FALSE(everWritten(sm.lookup(kC - 4)));
    EXPECT_TRUE(everWritten(sm.lookup(kC - 3)));
    EXPECT_TRUE(everWritten(sm.lookup(2 * kC + 4)));
    std::size_t visited = 0;
    sm.forEach(perUnit([&](std::uint64_t, ShadowHot &) { ++visited; }));
    // 3 + 4096 + 5 span units, plus unit kC-4 touched by the probe
    // lookup above (the other two probes hit already-touched units).
    EXPECT_EQ(visited, 3 + kC + 5 + 1);
}

TEST(ShadowMemory, SpanMatchesPerUnitLookup)
{
    // Randomized spans against per-unit lookups on a twin instance.
    ShadowMemory a, b;
    sigil::Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t first = rng.nextBounded(1 << 16);
        std::uint64_t last = first + rng.nextBounded(300);
        vg::ContextId ctx =
            static_cast<vg::ContextId>(rng.nextBounded(50));
        const StampId wa = ctxId(a, ctx);
        const StampId wb = ctxId(b, ctx);
        a.span(first, last, false, [&](ShadowMemory::Run run) {
            std::fill(run.hot, run.hot + run.count, ShadowHot{wa, 0});
        });
        for (std::uint64_t u = first; u <= last; ++u)
            b.lookup(u).writer = wb;
    }
    EXPECT_EQ(a.stats().chunksAllocated, b.stats().chunksAllocated);
    EXPECT_EQ(a.liveBytes(), b.liveBytes());
    std::vector<std::pair<std::uint64_t, vg::ContextId>> va, vb;
    a.forEach(perUnit([&](std::uint64_t u, ShadowHot &o) {
        va.push_back({u, writerCtx(a, o)});
    }));
    b.forEach(perUnit([&](std::uint64_t u, ShadowHot &o) {
        vb.push_back({u, writerCtx(b, o)});
    }));
    EXPECT_EQ(va, vb);
}

TEST(ShadowMemory, SpanAndPerUnitEvictIdentically)
{
    // Under a chunk limit, span and per-unit walks must trigger the
    // same evictions in the same order.
    ShadowMemory::Config cfg;
    cfg.maxChunks = 3;
    ShadowMemory a(cfg), b(cfg);
    std::vector<std::uint64_t> ea, eb;
    a.setEvictionHandler(
        perUnit([&](std::uint64_t u, ShadowHot &) { ea.push_back(u); }));
    b.setEvictionHandler(
        perUnit([&](std::uint64_t u, ShadowHot &) { eb.push_back(u); }));
    sigil::Rng rng(13);
    const StampId wa = ctxId(a, 1);
    const StampId wb = ctxId(b, 1);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t first = rng.nextBounded(1 << 16);
        std::uint64_t last = first + rng.nextBounded(3000);
        a.span(first, last, false, [&](ShadowMemory::Run run) {
            std::fill(run.hot, run.hot + run.count, ShadowHot{wa, 0});
        });
        for (std::uint64_t u = first; u <= last; ++u)
            b.lookup(u).writer = wb;
    }
    EXPECT_EQ(a.stats().evictions, b.stats().evictions);
    EXPECT_EQ(ea, eb);
}

TEST(ShadowMemory, ChunkByteFormulas)
{
    // Hot: 8 bytes per unit plus the touched bitmap (1 bit per unit).
    EXPECT_EQ(ShadowMemory::chunkHotBytes(),
              ShadowMemory::kChunkUnits * sizeof(ShadowHot) +
                  ShadowMemory::kChunkUnits / 8);
    EXPECT_EQ(sizeof(ShadowHot), 8u);
    // Cold: the charge of the paper's per-unit re-use record, 32 B.
    EXPECT_EQ(ShadowMemory::chunkColdBytes(),
              ShadowMemory::kChunkUnits * 32);
}

TEST(ShadowMemory, LimitOfOneIsRejected)
{
    ShadowMemory::Config cfg;
    cfg.maxChunks = 1;
    EXPECT_EXIT(ShadowMemory sm(cfg), ::testing::ExitedWithCode(1), "");
}

TEST(ShadowMemory, HugeGranularityRejected)
{
    ShadowMemory::Config cfg;
    cfg.granularityShift = 16;
    EXPECT_EXIT(ShadowMemory sm(cfg), ::testing::ExitedWithCode(1), "");
}

// Slot pool. ---------------------------------------------------------

/** The unit `off` units into chunk c. */
std::uint64_t
unitIn(std::uint64_t c, std::uint64_t off = 7)
{
    return c * ShadowMemory::kChunkUnits + off;
}

TEST(ShadowSlotPool, SequentialLifetimesGetIdenticalArrays)
{
    // Chunks created out of address order, half of them charged cold
    // state: the cold charge allocates nothing from the pool.
    const std::uint64_t order[] = {5, 0, 17, 3, 1000, 2, 64, 9};
    auto touch = [&](ShadowMemory &sm) {
        for (std::uint64_t c : order)
            sm.lookup(unitIn(c), c % 2 == 1);
    };
    std::vector<ShadowHot *> first;
    {
        ShadowMemory sm;
        touch(sm);
        for (std::uint64_t c : order)
            first.push_back(sm.find(unitIn(c)));
    }
    ShadowMemory sm;
    touch(sm);
    for (std::size_t i = 0; i < std::size(order); ++i) {
        ShadowHot *p = sm.find(unitIn(order[i]));
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p, first[i]) << "chunk " << order[i];
    }
}

TEST(ShadowSlotPool, ChunkAfterEvictionTakesLowestFreeSlot)
{
    // Arrays are handed out lowest free slot first, so with no release
    // in between the slots of a, b, c, d ascend in that order.
    auto a = std::make_unique<ShadowMemory>();
    a->lookup(unitIn(0), true);
    a->lookup(unitIn(1), true);
    ShadowHot *const a0 = a->find(unitIn(0));
    ShadowHot *const a1 = a->find(unitIn(1));

    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory b(cfg);
    b.lookup(unitIn(10), true);
    b.lookup(unitIn(11), true);
    ShadowHot *const b10 = b.find(unitIn(10));

    // Free a's two slots, then evict chunk 10: three slots are free.
    a.reset();
    b.lookup(unitIn(12), true);
    EXPECT_EQ(b.stats().evictions, 1u);
    EXPECT_EQ(b.find(unitIn(12)), a0);
    // Evicts chunk 11; a's second slot is now the lowest free one.
    b.lookup(unitIn(13), true);
    EXPECT_EQ(b.find(unitIn(13)), a1);
    // Evicts chunk 12: its slot (a's first) is the lowest free again.
    b.lookup(unitIn(14), true);
    EXPECT_EQ(b.find(unitIn(14)), a0);
    EXPECT_NE(b.find(unitIn(14)), b10);
}

TEST(ShadowSlotPool, ReusedSlotIsPoisonedUntilConstructed)
{
#ifndef __SANITIZE_ADDRESS__
    GTEST_SKIP() << "checks AddressSanitizer poisoning";
#else
    ShadowHot *first = nullptr;
    {
        ShadowMemory sm;
        sm.lookup(0);
        sm.lookup(64); // constructs hot block 1
        first = sm.find(0);
    }
    ShadowMemory sm;
    sm.lookup(0);
    ShadowHot *hot = sm.find(0);
    ASSERT_EQ(hot, first);
    // Block 1 of the reused slot was constructed in the first lifetime
    // but not in this one.
    EXPECT_DEATH(
        {
            volatile StampId w = hot[64].writer;
            (void)w;
        },
        "use-after-poison");
#endif
}

/** Record the differential suites' workload at a size that churns chunks. */
std::string
recordPoolTrace(const fixtures::TraceParams &p, int steps)
{
    std::ostringstream os(std::ios::binary);
    vg::Guest g("pool");
    vg::BinaryTraceRecorder rec(os);
    g.addTool(&rec);
    fixtures::TraceDriver(p).drive(g, steps);
    return os.str();
}

/** Replay a trace into a fresh guest and profiler. */
fixtures::Outputs
replayPoolTrace(const std::string &trace, const fixtures::TraceParams &p,
                std::uint64_t *rss_after = nullptr)
{
    std::istringstream is(trace, std::ios::binary);
    vg::Guest g("pool");
    core::SigilProfiler prof(fixtures::profilerConfig(p));
    g.addTool(&prof);
    vg::replayBinaryTrace(is, g);
    if (rss_after != nullptr)
        *rss_after = residentBytes();
    return fixtures::serialize(prof);
}

const fixtures::TraceParams kPoolParams{41, 0, 0, true, true, false};

TEST(ShadowSlotPool, RepeatedReplaysKeepResidentMemoryFlat)
{
    // Each replay creates its chunks in the same order, so it gets the
    // slots and pages of the one before. The shadow footprint here is
    // ~28 MB; with arrays from the general heap the resident set grew
    // by ~12 MB from the second replay to the third. What is left is
    // heap noise of a few pages.
#ifdef __SANITIZE_ADDRESS__
    GTEST_SKIP() << "AddressSanitizer quarantines freed heap blocks, so "
                    "the resident set grows across replays regardless";
#endif
    constexpr std::uint64_t kSlackBytes = std::uint64_t{1} << 20;
    const std::string trace = recordPoolTrace(kPoolParams, 40000);
    std::uint64_t rss[3] = {};
    std::string profile;
    for (std::uint64_t &r : rss) {
        const fixtures::Outputs out = replayPoolTrace(trace, kPoolParams, &r);
        if (profile.empty())
            profile = out.profile;
        EXPECT_EQ(out.profile, profile);
    }
    ASSERT_GT(rss[1], 0u) << "no resident set size in /proc/self/statm";
    EXPECT_LE(rss[2], rss[1] + kSlackBytes)
        << "first " << rss[0] << " B, second " << rss[1] << " B, third "
        << rss[2] << " B";
}

TEST(ShadowSlotPool, ConcurrentReplaysMatchSerial)
{
    const std::string trace = recordPoolTrace(kPoolParams, 6000);
    const fixtures::Outputs serial = replayPoolTrace(trace, kPoolParams);
    ASSERT_GT(serial.profile.size(), 100u);
    std::vector<fixtures::Outputs> got(4);
    std::vector<std::thread> threads;
    for (fixtures::Outputs &out : got)
        threads.emplace_back(
            [&] { out = replayPoolTrace(trace, kPoolParams); });
    for (std::thread &t : threads)
        t.join();
    for (const fixtures::Outputs &out : got) {
        EXPECT_EQ(out.profile, serial.profile);
        EXPECT_EQ(out.events, serial.events);
    }
}

/** Property: shadow memory behaves like a plain map of unit → object. */
class ShadowOracle : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ShadowOracle, MatchesMapSemantics)
{
    ShadowMemory sm;
    std::map<std::uint64_t, vg::ContextId> oracle;
    sigil::Rng rng(GetParam());
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t unit = rng.nextBounded(1 << 18);
        if (rng.next() & 1) {
            vg::ContextId ctx =
                static_cast<vg::ContextId>(rng.nextBounded(100));
            sm.lookup(unit).writer = ctxId(sm, ctx);
            oracle[unit] = ctx;
        } else {
            auto it = oracle.find(unit);
            ShadowHot &o = sm.lookup(unit);
            if (it == oracle.end())
                EXPECT_FALSE(everWritten(o)) << "unit " << unit;
            else
                EXPECT_EQ(writerCtx(sm, o), it->second)
                    << "unit " << unit;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShadowOracle,
                         ::testing::Values(11, 22, 33, 44));

/**
 * Reader stamp ids against the hash map they replaced: a random
 * stream of reads by dynamic calls (each call runs in one context;
 * calls are numbered densely from 1) that turns re-use off and on
 * again, so call-0 stamps keyed by context interleave with per-call
 * ones. Halfway, the table is rebuilt the way a checkpoint restore
 * does it — re-interning every entry in id order — and the stream
 * continues on the copy.
 */
class StampTableProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(StampTableProperty, ReaderIdsMatchFirstInternMap)
{
    sigil::Rng rng(GetParam());
    auto table = std::make_unique<StampTable>();
    std::map<std::pair<vg::CallNum, vg::ContextId>, StampId> oracle;
    oracle[{0, vg::kInvalidContext}] = 0;
    std::vector<vg::ContextId> call_ctx{vg::kInvalidContext};
    bool reuse = true;
    const int steps = 20000;
    for (int i = 0; i < steps; ++i) {
        if (i == steps / 2) {
            auto copy = std::make_unique<StampTable>();
            for (std::size_t id = 1; id < table->readerCount(); ++id)
                EXPECT_EQ(copy->internReader(table->reader(id)), id);
            EXPECT_EQ(copy->bytes(), table->bytes());
            table = std::move(copy);
        }
        if (rng.nextBounded(500) == 0)
            reuse = !reuse;
        if (call_ctx.size() == 1 || rng.nextBounded(4) == 0) {
            call_ctx.push_back(
                static_cast<vg::ContextId>(rng.nextBounded(40)));
        }
        // Mostly recent calls, sometimes any earlier one; now and then
        // a read outside any function (the null stamp).
        vg::CallNum call;
        if (rng.nextBounded(50) == 0)
            call = 0;
        else if (rng.nextBounded(4) == 0)
            call = 1 + rng.nextBounded(call_ctx.size() - 1);
        else
            call = call_ctx.size() - 1 - rng.nextBounded(
                       std::min<std::size_t>(3, call_ctx.size() - 1));
        const vg::ContextId ctx = call_ctx[call];
        const ReaderStamp s{reuse ? call : 0, ctx};
        auto [it, inserted] = oracle.try_emplace(
            std::make_pair(s.call, s.ctx),
            static_cast<StampId>(oracle.size()));
        (void)inserted;
        ASSERT_EQ(table->internReader(s), it->second)
            << "step " << i << " call " << s.call << " ctx " << s.ctx;
    }
    EXPECT_EQ(table->readerCount(), oracle.size());
    for (const auto &[key, id] : oracle) {
        EXPECT_EQ(table->reader(id).call, key.first);
        EXPECT_EQ(table->reader(id).ctx, key.second);
    }
}

/**
 * Writer stamp ids against a first-intern std::map: a random stream of
 * writes on four threads, each writing inside its open event segment
 * (one context on one thread; seqs numbered densely from 1 across the
 * threads) while events are on, and with seq 0 under any context while
 * they are off. Events turn off and on again, now and then a write
 * re-interns the stamp of an older segment or the null stamp, and
 * halfway the table is rebuilt the way a checkpoint restore does it.
 */
TEST_P(StampTableProperty, WriterIdsMatchFirstInternMap)
{
    sigil::Rng rng(GetParam());
    auto table = std::make_unique<StampTable>();
    std::map<std::tuple<std::uint64_t, vg::ContextId, vg::ThreadId>, StampId>
        oracle;
    oracle[{0, vg::kInvalidContext, 0}] = 0;
    std::vector<WriterStamp> segments{WriterStamp{}}; // indexed by seq
    std::vector<std::uint64_t> open(4, 0);            // per thread
    bool events = true;
    const int steps = 20000;
    for (int i = 0; i < steps; ++i) {
        if (i == steps / 2) {
            auto copy = std::make_unique<StampTable>();
            for (std::size_t id = 1; id < table->writerCount(); ++id)
                EXPECT_EQ(copy->internWriter(table->writer(id)), id);
            EXPECT_EQ(copy->bytes(), table->bytes());
            table = std::move(copy);
        }
        if (rng.nextBounded(500) == 0)
            events = !events;
        const auto tid = static_cast<vg::ThreadId>(rng.nextBounded(4));
        const auto ctx = static_cast<vg::ContextId>(rng.nextBounded(40));
        WriterStamp s;
        if (rng.nextBounded(50) == 0) {
            s = WriterStamp{}; // an access outside any function
        } else if (!events) {
            s = WriterStamp{0, ctx, tid};
        } else if (segments.size() > 1 && rng.nextBounded(20) == 0) {
            s = segments[1 + rng.nextBounded(segments.size() - 1)];
        } else {
            if (open[tid] == 0 || rng.nextBounded(8) == 0) {
                open[tid] = segments.size();
                segments.push_back(WriterStamp{open[tid], ctx, tid});
            }
            s = segments[open[tid]];
        }
        ASSERT_TRUE(table->writerFits(s));
        auto [it, inserted] = oracle.try_emplace(
            std::make_tuple(s.seq, s.ctx, s.thread),
            static_cast<StampId>(oracle.size()));
        (void)inserted;
        ASSERT_EQ(table->internWriter(s), it->second)
            << "step " << i << " seq " << s.seq << " ctx " << s.ctx
            << " thread " << s.thread;
    }
    EXPECT_EQ(table->writerCount(), oracle.size());
    for (const auto &[key, id] : oracle) {
        EXPECT_EQ(table->writer(id).seq, std::get<0>(key));
        EXPECT_EQ(table->writer(id).ctx, std::get<1>(key));
        EXPECT_EQ(table->writer(id).thread, std::get<2>(key));
    }
    EXPECT_EQ(table->bytes(),
              (oracle.size() - 1) *
                  (sizeof(WriterStamp) + StampTable::kIndexShareBytes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StampTableProperty,
                         ::testing::Values(3, 5, 8, 13));

TEST(StampTableDeathTest, SeqInternedUnderTwoIdentitiesPanics)
{
    StampTable t;
    EXPECT_NE(t.internWriter(WriterStamp{5, 1, 0}), 0u);
    // Another context, or another thread, for the same segment.
    EXPECT_FALSE(t.writerFits(WriterStamp{5, 2, 0}));
    EXPECT_FALSE(t.writerFits(WriterStamp{5, 1, 1}));
    EXPECT_TRUE(t.writerFits(WriterStamp{5, 1, 0}));
    EXPECT_TRUE(t.writerFits(WriterStamp{6, 2, 1}));
    EXPECT_DEATH(t.internWriter(WriterStamp{5, 2, 0}), "segment 5");
    EXPECT_DEATH(t.internWriter(WriterStamp{5, 1, 1}), "segment 5");
}

// Run table. --------------------------------------------------------

TEST(ShadowRunTable, RereadOfAWholeRunExtendsItInPlace)
{
    RunTable t;
    const StampId r = t.start(5, 100, 10);
    EXPECT_TRUE(RunTable::isRun(r));
    EXPECT_EQ(t.readerOf(r), 5u);
    EXPECT_EQ(t.extend(r, 107, 10), r);
    const ReuseRun &run = t.at(r);
    EXPECT_EQ(run.reads, 2u);
    EXPECT_EQ(run.firstRead, 100u);
    EXPECT_EQ(run.lastRead, 107u);
    EXPECT_EQ(run.units, 10u);
    EXPECT_EQ(t.live(), 1u);
    EXPECT_EQ(t.peak(), 1u);
    // A plain stamp names itself.
    EXPECT_FALSE(RunTable::isRun(5));
    EXPECT_EQ(t.readerOf(5), 5u);
}

TEST(ShadowRunTable, PartialRereadSplitsOffARecord)
{
    RunTable t;
    const StampId r = t.start(5, 100, 10);
    const StampId s = t.extend(r, 107, 4);
    ASSERT_NE(s, r);
    EXPECT_EQ(t.at(r).units, 6u);
    EXPECT_EQ(t.at(r).reads, 1u);
    EXPECT_EQ(t.at(s).reads, 2u);
    EXPECT_EQ(t.at(s).firstRead, 100u);
    EXPECT_EQ(t.at(s).lastRead, 107u);
    EXPECT_EQ(t.at(s).units, 4u);
    EXPECT_EQ(t.live(), 2u);
    // The rest of r, re-read by the same access, is all of r now: it
    // is extended in place and reaches the state of s, but the two
    // records stay apart.
    EXPECT_EQ(t.extend(r, 107, 6), r);
    EXPECT_EQ(t.at(r).reads, 2u);
    EXPECT_EQ(t.at(r).firstRead, 100u);
    EXPECT_EQ(t.at(r).units, 6u);
    EXPECT_EQ(t.at(s).units, 4u);
    EXPECT_EQ(t.live(), 2u);
    EXPECT_EQ(t.peak(), 2u);
}

TEST(ShadowRunTable, RecordIsFreedAtZeroUnits)
{
    RunTable t;
    const StampId r = t.start(5, 100, 12);
    t.release(r, 4);
    EXPECT_EQ(t.live(), 1u);
    EXPECT_EQ(t.at(r).units, 8u);
    t.release(r, 8);
    EXPECT_EQ(t.live(), 0u);
    std::size_t visited = 0;
    t.forEachLive([&](ReuseRun &) { ++visited; });
    EXPECT_EQ(visited, 0u);
    // The freed record is the next one handed out; every start makes
    // a record of its own.
    EXPECT_EQ(t.start(7, 200, 1), r);
    EXPECT_NE(t.start(7, 200, 1), r);
    EXPECT_EQ(t.live(), 2u);
    EXPECT_EQ(t.peak(), 2u);
}

TEST(ShadowRunTable, ReaderStampsStayBelowTheTag)
{
    // The tag is the top bit of a 32-bit hot reader field; interning
    // 2^31 reader stamps is out of reach of a test, so check the
    // constants the fatal check in ShadowMemory::internReader uses.
    EXPECT_EQ(RunTable::kRunTag, StampId{1} << 31);
    EXPECT_TRUE(RunTable::isRun(RunTable::kRunTag));
    EXPECT_FALSE(RunTable::isRun(RunTable::kRunTag - 1));
}

/** A guest, its default profiler (re-use on) and a chunk limit. */
struct RunGuest
{
    explicit RunGuest(std::size_t max_chunks = 0)
        : prof([&] {
              core::SigilConfig cfg;
              cfg.maxShadowChunks = max_chunks;
              return cfg;
          }())
    {
        g.addTool(&prof);
    }

    const RunTable &runs() const { return prof.shadowMemory().runs(); }

    vg::Guest g{"runs"};
    core::SigilProfiler prof;
};

TEST(ShadowRunTable, EvictionFoldsExactlyItsChunksUnits)
{
    // One run over 64 units, 32 on each side of a chunk edge. Evicting
    // the first chunk folds its 32 units and keeps the run for the
    // other 32.
    constexpr vg::Addr kEdge = vg::kHeapBase + ShadowMemory::kChunkUnits;
    RunGuest rg(2);
    vg::Guest &g = rg.g;
    g.enter("main");
    g.enter("produce");
    g.write(kEdge - 32, 64);
    g.leave();
    g.enter("consume");
    const vg::ContextId consume = g.currentContext();
    g.read(kEdge - 32, 64); // one record per chunk
    g.read(kEdge - 32, 64); // extends both in place
    ASSERT_EQ(rg.runs().live(), 2u);
    EXPECT_EQ(rg.prof.aggregates(consume).reusedUnits, 0u);

    g.write(kEdge + 2 * ShadowMemory::kChunkUnits, 1); // evicts the first
    EXPECT_EQ(rg.prof.shadowStats().evictions, 1u);
    EXPECT_EQ(rg.prof.aggregates(consume).reusedUnits, 32u);
    EXPECT_EQ(rg.prof.aggregates(consume).reuseReads, 32u);
    ASSERT_EQ(rg.runs().live(), 1u);
    std::uint64_t units = 0;
    rg.prof.shadowMemory().runs().forEachLive(
        [&](ReuseRun &r) { units += r.units; });
    EXPECT_EQ(units, 32u);

    g.write(kEdge + 3 * ShadowMemory::kChunkUnits, 1); // evicts the second
    EXPECT_EQ(rg.prof.aggregates(consume).reusedUnits, 64u);
    EXPECT_EQ(rg.runs().live(), 0u);
    g.leave();
    g.leave();
    g.finish();
    EXPECT_EQ(rg.prof.aggregates(consume).reusedUnits, 64u);
    EXPECT_EQ(rg.prof.shadowStats().runsPeak, 2u);
}

TEST(ShadowRunTable, ReadThatEvictsItsOwnChunksMatchesTheReference)
{
    // Under a 2-chunk limit a read over chunks B, C and D evicts B,
    // which it touched first, while it is still running: the eviction
    // folds and frees B's share of the runs the read made there, and
    // the read goes on to make runs in D. Nothing of B's records may
    // leak into D's.
    constexpr vg::Addr kChunk = ShadowMemory::kChunkUnits;
    const vg::Addr b = vg::kHeapBase;
    core::SigilConfig cfg;
    cfg.maxShadowChunks = 2;
    vg::Guest g("evict");
    fixtures::ReferenceProfiler ref(cfg);
    core::SigilProfiler prof(cfg);
    g.addTool(&ref);
    g.addTool(&prof);
    g.enter("main");
    g.read(b, 2 * kChunk);
    g.write(b, 100);
    g.read(b, 3 * kChunk);
    g.read(b + 2 * kChunk + 100, 200); // splits a record of D
    g.read(b + kChunk, 2 * kChunk);
    g.read(b, 3 * kChunk);
    g.enter("other");
    g.read(b + 50, 3 * kChunk);
    g.leave();
    g.read(b + kChunk / 2, 2 * kChunk);
    g.leave();
    g.finish();
    EXPECT_GT(prof.shadowStats().evictions, 0u);
    const fixtures::Outputs want = fixtures::serialize(ref);
    const fixtures::Outputs got = fixtures::serialize(prof);
    EXPECT_EQ(got.profile, want.profile);
    EXPECT_EQ(got.events, want.events);
}

TEST(ShadowRunTable, FinishFoldsLiveRecordsLikeTheReference)
{
    // finish() folds each live record once, weighted by its units; the
    // reference closes unit by unit. Both must render the same bytes.
    for (const fixtures::TraceParams &p :
         {fixtures::TraceParams{61, 0, 0, true, true, false},
          fixtures::TraceParams{62, 6, 0, true, false, false},
          fixtures::TraceParams{63, 0, 0, true, false, true}}) {
        vg::Guest g("finish");
        fixtures::ReferenceProfiler ref(fixtures::profilerConfig(p));
        core::SigilProfiler prof(fixtures::profilerConfig(p));
        g.addTool(&ref);
        g.addTool(&prof);
        fixtures::TraceDriver driver(p);
        driver.prologue(g);
        driver.driveSegment(g, 4000);
        const std::uint64_t live = prof.shadowStats().runsLive;
        EXPECT_GT(live, 0u) << fixtures::paramsName(p);
        driver.epilogue(g);
        // Closed records stay until their units leave.
        EXPECT_EQ(prof.shadowStats().runsLive, live);
        const fixtures::Outputs want = fixtures::serialize(ref);
        const fixtures::Outputs got = fixtures::serialize(prof);
        EXPECT_EQ(got.profile, want.profile) << fixtures::paramsName(p);
        EXPECT_EQ(got.events, want.events) << fixtures::paramsName(p);
    }
}

TEST(ShadowRunTable, BaselineModeCreatesNoRecords)
{
    // With re-use off, hot reader fields only ever hold plain stamps,
    // in byte mode and in line mode.
    for (unsigned shift : {0u, 6u}) {
        const fixtures::TraceParams p{64, shift, 0, false, true, false};
        vg::Guest g("baseline");
        core::SigilProfiler prof(fixtures::profilerConfig(p));
        g.addTool(&prof);
        fixtures::TraceDriver(p).drive(g, 3000);
        EXPECT_EQ(prof.shadowStats().runsPeak, 0u) << shift;
        EXPECT_GT(prof.shadowStats().chunksPeak, 0u);
    }
}

/** The profiler body of a checkpoint of rg (the guest's part dropped). */
std::string
profilerBody(RunGuest &rg)
{
    ByteSink sink;
    rg.prof.saveState(sink);
    return sink.take();
}

/** Restore a guest snapshot plus a profiler body into rg. */
void
restoreInto(RunGuest &rg, const std::string &guest_state,
            const std::string &body)
{
    const std::string all = guest_state + body;
    ByteSource src(all.data(), all.size());
    ASSERT_TRUE(rg.g.restoreState(src));
    ASSERT_TRUE(rg.prof.restoreState(src));
    ASSERT_TRUE(src.ok());
    ASSERT_EQ(src.pos(), all.size());
}

std::string
guestState(vg::Guest &g)
{
    ByteSink sink;
    g.saveState(sink);
    return sink.take();
}

TEST(ShadowRunTable, RestoreMergesEqualRecords)
{
    // The checkpoint writes one record per unit; the restore gives
    // every group of equal records one run again.
    RunGuest rg;
    vg::Guest &g = rg.g;
    g.enter("main");
    g.enter("produce");
    g.write(vg::kHeapBase, 300);
    g.leave();
    g.enter("consume");
    g.read(vg::kHeapBase, 300);
    g.read(vg::kHeapBase + 100, 50); // splits the run in three
    g.read(vg::kHeapBase + ShadowMemory::kChunkUnits, 8);
    EXPECT_EQ(rg.runs().live(), 3u);
    const std::string gs = guestState(g);
    const std::string body = profilerBody(rg);

    RunGuest back;
    restoreInto(back, gs, body);
    EXPECT_EQ(back.runs().live(), 3u);
    std::map<std::uint32_t, std::uint64_t> units_by_reads;
    back.prof.shadowMemory().runs().forEachLive(
        [&](ReuseRun &r) { units_by_reads[r.reads] += r.units; });
    EXPECT_EQ(units_by_reads,
              (std::map<std::uint32_t, std::uint64_t>{{1, 258}, {2, 50}}));
    EXPECT_EQ(profilerBody(back), body);
    EXPECT_EQ(back.prof.shadowStats().runsPeak, 3u);
}

TEST(ShadowRunTable, StaleTicksOfIdleRecordsRestoreAndResaveAsZero)
{
    // Earlier writers left the ticks of a closed run in the record of
    // a unit with no pending run (runReads == 0). Such a body must
    // restore, resume like an uninterrupted run, and re-save with zero
    // ticks.
    const vg::Addr a = vg::kHeapBase;
    auto part1 = [&](vg::Guest &g) {
        g.enter("main");
        g.enter("produce");
        g.write(a, 48);
        g.leave();
        g.enter("consume");
        g.read(a, 48);
        g.read(a, 16); // units 0..15: reads 2; 16..47: reads 1
        g.leave();
        g.enter("produce");
        g.write(a + 32, 16); // closes the run of units 32..47
        g.leave();
    };
    auto part2 = [&](vg::Guest &g) {
        g.enter("consume");
        g.read(a, 48);
        g.read(a + 8, 32);
        g.leave();
        g.leave();
        g.finish();
    };

    RunGuest whole;
    part1(whole.g);
    part2(whole.g);
    const fixtures::Outputs want = fixtures::serialize(whole.prof);

    RunGuest first;
    part1(first.g);
    const std::string gs = guestState(first.g);
    const std::string body = profilerBody(first);

    // The body ends with the one chunk's unit group: a chunk count,
    // the chunk index, the cold flag and a unit count, then per unit
    // three one-byte varints (offset, writer, reader) and the cold
    // record: u64 first tick, u64 last tick, u64 access total and u32
    // read count.
    constexpr std::size_t kUnits = 48, kRecord = 3 + 8 + 8 + 8 + 4;
    const std::size_t group = body.size() - (4 + kUnits * kRecord);
    {
        ByteSource head(body.data() + group, 4);
        ASSERT_EQ(head.varint(), 1u);
        ASSERT_EQ(head.varint(), vg::kHeapBase >> ShadowMemory::kChunkShift);
        ASSERT_EQ(head.u8(), 1u);
        ASSERT_EQ(head.varint(), kUnits);
    }
    std::string stale = body;
    std::size_t idle = 0;
    for (std::size_t u = 0; u < kUnits; ++u) {
        const std::size_t rec = group + 4 + u * kRecord;
        ByteSource src(body.data() + rec, kRecord);
        ASSERT_EQ(src.varint(), u);
        src.varint();
        src.varint();
        const std::uint64_t first_read = src.u64();
        const std::uint64_t last_read = src.u64();
        src.u64();
        const std::uint32_t reads = src.u32();
        if (reads != 0) {
            EXPECT_NE(first_read, 0u);
            continue;
        }
        EXPECT_EQ(first_read, 0u);
        EXPECT_EQ(last_read, 0u);
        // What the older writer kept: the ticks of the closed run.
        ByteSink ticks;
        ticks.u64(7);
        ticks.u64(9);
        stale.replace(rec + 3, 16, ticks.bytes());
        ++idle;
    }
    ASSERT_EQ(idle, 16u);
    ASSERT_NE(stale, body);

    RunGuest resumed;
    restoreInto(resumed, gs, stale);
    EXPECT_EQ(profilerBody(resumed), body); // zero ticks again
    // Save -> restore -> save is byte-stable.
    RunGuest again;
    restoreInto(again, gs, profilerBody(resumed));
    EXPECT_EQ(profilerBody(again), body);

    part2(resumed.g);
    const fixtures::Outputs got = fixtures::serialize(resumed.prof);
    EXPECT_EQ(got.profile, want.profile);
    EXPECT_EQ(got.events, want.events);
}

TEST(ShadowRunTable, RunsScaleWithReadsNotUnits)
{
    // A wide random re-use stream: reads of 32..255 B at random
    // offsets of a 64 KiB window, by a few calls that come back, with
    // some overwrites. Per-unit records would number in the tens of
    // thousands; the run table holds about one per read (records never
    // merge, so one read over several records keeps them apart).
    RunGuest rg;
    vg::Guest &g = rg.g;
    sigil::Rng rng(29);
    g.enter("main");
    std::uint64_t reads = 0;
    for (int i = 0; i < 6000; ++i) {
        if (rng.nextBounded(64) == 0) {
            g.leave();
            g.enter(rng.nextBounded(2) == 0 ? "f" : "main");
        }
        const vg::Addr addr = vg::kHeapBase + rng.nextBounded(1 << 16);
        const unsigned size = 32 + static_cast<unsigned>(rng.nextBounded(224));
        if (rng.nextBounded(8) == 0) {
            g.write(addr, size);
        } else {
            g.read(addr, size);
            ++reads;
        }
    }
    std::uint64_t units = 0;
    rg.prof.shadowMemory().runs().forEachLive(
        [&](ReuseRun &r) { units += r.units; });
    const ShadowStats st = rg.prof.shadowStats();
    EXPECT_GT(units, 40000u);
    EXPECT_LE(st.runsPeak, 2 * reads);
    EXPECT_LT(st.runsLive * 5, units);
    g.leave();
    g.finish();
}

} // namespace
} // namespace sigil::shadow
