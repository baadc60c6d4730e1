/**
 * @file
 * Tests for the two-level shadow memory: lazy chunk creation, the
 * lookup cache, the span API, line granularity, the LRU memory limit,
 * the touched bitmap and touched-block init, stamp interning, lazy
 * cold arrays, cold blocks built on first read, byte accounting,
 * eviction callbacks, and the slot pool the chunk arrays come from.
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
#include <vector>

#include "core/sigil_profiler.hh"
#include "shadow/shadow_memory.hh"
#include "support/rng.hh"
#include "support/serial.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

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
        for (std::size_t i = 0; i < run.count; ++i) {
            fn(run.firstUnit + i,
               ShadowRef{run.hot[i], run.cold ? run.cold + i : nullptr});
        }
    };
}

/** The writer context recorded for a unit (kInvalidContext if never). */
vg::ContextId
writerCtx(const ShadowMemory &sm, const ShadowRef &o)
{
    return sm.stamps().writer(o.hot.writer).ctx;
}

bool
everWritten(const ShadowRef &o)
{
    return o.hot.writer != 0;
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
    ShadowRef o = sm.lookup(100);
    EXPECT_FALSE(everWritten(o));
    EXPECT_EQ(sm.stats().chunksLive, 1u);
    EXPECT_EQ(sm.stats().chunksAllocated, 1u);
}

TEST(ShadowMemory, FindDoesNotCreate)
{
    ShadowMemory sm;
    EXPECT_FALSE(sm.find(100));
    sm.lookup(100).hot.writer = ctxId(sm, 3);
    ShadowPtr o = sm.find(100);
    ASSERT_TRUE(o);
    EXPECT_EQ(sm.stamps().writer(o.hot->writer).ctx, 3);
    EXPECT_EQ(sm.stats().chunksLive, 1u);
}

TEST(ShadowMemory, FindOfUntouchedBlockIsNull)
{
    // Blocks of 64 units are constructed on first touch: find() must
    // not hand out a unit whose block was never touched, even in a
    // resident chunk.
    ShadowMemory sm;
    sm.lookup(100); // block 1 (units 64..127) of chunk 0
    EXPECT_TRUE(sm.find(100));
    ShadowPtr neighbour = sm.find(101); // same block: constructed, zero
    ASSERT_TRUE(neighbour);
    EXPECT_EQ(neighbour.hot->writer, 0u);
    EXPECT_EQ(neighbour.hot->reader, 0u);
    EXPECT_FALSE(sm.find(0));   // block 0: never touched
    EXPECT_FALSE(sm.find(200)); // block 3: never touched
    EXPECT_EQ(sm.stats().chunksLive, 1u);
    sm.lookup(5);
    ShadowPtr now = sm.find(0);
    ASSERT_TRUE(now);
    EXPECT_EQ(now.hot->writer, 0u);
}

TEST(ShadowMemory, LateColdArrayCoversEarlierTouchedBlocks)
{
    // A cold array materialized after some blocks were touched must
    // construct their cold entries too (a sweep visits them).
    ShadowMemory sm;
    sm.lookup(3).hot.writer = ctxId(sm, 1);
    sm.lookup(700);
    ShadowRef c = sm.lookup(4000, /*want_cold=*/true);
    ASSERT_NE(c.cold, nullptr);
    std::uint64_t visited = 0;
    sm.forEach(perUnit([&](std::uint64_t, const ShadowRef &o) {
        ASSERT_NE(o.cold, nullptr);
        EXPECT_EQ(o.cold->runReads, 0u);
        EXPECT_EQ(o.cold->runFirstRead, 0u);
        EXPECT_EQ(o.cold->runLastRead, 0u);
        EXPECT_EQ(o.cold->totalAccesses, 0u);
        ++visited;
    }));
    EXPECT_EQ(visited, 3u);
    ShadowPtr early = sm.find(3);
    ASSERT_TRUE(early);
    ASSERT_NE(early.cold, nullptr);
    EXPECT_EQ(writerCtx(sm, ShadowRef{*early.hot, early.cold}), 1);
}

TEST(ShadowMemory, WrittenBlocksNeverBuildCold)
{
    // Writes resolve without want_cold: even in a chunk that holds a
    // cold array, the blocks they enter stay unbuilt and their runs
    // carry no cold pointer.
    constexpr std::uint64_t kC = ShadowMemory::kChunkUnits;
    ShadowMemory sm;
    const StampId w = ctxId(sm, 1);
    sm.lookup(kC - 1, /*want_cold=*/true); // chunk 0, block 63
    EXPECT_EQ(sm.stats().coldArraysLive, 1u);
    EXPECT_EQ(sm.stats().coldBlocksLive, 1u);
    std::vector<std::pair<std::uint64_t, bool>> runs;
    sm.span(0, kC + 200, false, [&](ShadowMemory::Run run) {
        runs.push_back({run.firstUnit, run.cold != nullptr});
        std::fill(run.hot, run.hot + run.count, ShadowHot{w, 0});
    });
    // Chunk 0 splits at its one built block; chunk 1 has no cold.
    EXPECT_EQ(runs, (std::vector<std::pair<std::uint64_t, bool>>{
                        {0, false}, {kC - 64, true}, {kC, false}}));
    EXPECT_EQ(sm.lookup(8).cold, nullptr);
    EXPECT_EQ(sm.stats().coldArraysLive, 1u);
    EXPECT_EQ(sm.stats().coldBlocksLive, 1u);
    // The cold sweeps skip the unbuilt blocks outright.
    std::uint64_t swept = 0;
    sm.forEach(perUnit([&](std::uint64_t, ShadowRef) { ++swept; }),
               SweepFilter::ColdChunks);
    EXPECT_EQ(swept, 64u);
}

TEST(ShadowMemory, ReadBuildsExactlyTheBlocksItEnters)
{
    constexpr std::uint64_t kC = ShadowMemory::kChunkUnits;
    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    sm.span(0, 300, false, [](ShadowMemory::Run) {}); // blocks 0..4
    EXPECT_EQ(sm.stats().coldBlocksLive, 0u);
    // Units 60..130 enter blocks 0, 1 and 2 of chunk 0.
    sm.span(60, 130, true, [](ShadowMemory::Run run) {
        ASSERT_NE(run.cold, nullptr);
        EXPECT_EQ(run.count, 71u);
        for (std::size_t i = 0; i < run.count; ++i)
            run.cold[i].runReads = 1;
    });
    EXPECT_EQ(sm.stats().coldBlocksLive, 3u);
    sm.span(100, 110, true, [](ShadowMemory::Run) {}); // already built
    EXPECT_EQ(sm.stats().coldBlocksLive, 3u);
    // Built cold state survives; the built block's other units read 0.
    EXPECT_EQ(sm.lookup(100).cold->runReads, 1u);
    EXPECT_EQ(sm.lookup(140).cold->runReads, 0u);
    EXPECT_EQ(sm.lookup(200).cold, nullptr);
    // Crossing a chunk edge builds the last block of one chunk and
    // the first of the next.
    sm.span(kC - 5, kC + 2, true, [](ShadowMemory::Run run) {
        ASSERT_NE(run.cold, nullptr);
    });
    EXPECT_EQ(sm.stats().coldBlocksLive, 5u);
    EXPECT_EQ(sm.stats().coldArraysLive, 2u);
    // Eviction releases the evicted chunk's built blocks.
    sm.lookup(2 * kC); // evicts chunk 0 (4 built blocks)
    EXPECT_EQ(sm.stats().coldBlocksLive, 1u);
    EXPECT_EQ(sm.stats().coldArraysLive, 1u);
}

TEST(ShadowMemory, CheckpointWithUnbuiltBlocksResavesIdentically)
{
    // A run whose cold chunk has blocks that were only written: the
    // checkpoint saves their cold entries as zeros, the restore builds
    // only the blocks holding a nonzero record, and the restored
    // profiler re-saves the same bytes.
    vg::Guest g("cold");
    core::SigilProfiler prof;
    g.addTool(&prof);
    const vg::Addr a = g.alloc(1024);
    g.enter("main");
    g.enter("produce");
    g.write(a, 1024);
    g.leave();
    g.enter("consume");
    g.read(a + 200, 16);
    g.read(a + 200, 16); // a pending re-use run
    g.leave();

    const ShadowStats st = prof.shadowStats();
    EXPECT_EQ(st.coldArraysLive, 1u);
    EXPECT_EQ(st.coldBlocksLive, 1u); // allocations are 64-byte aligned

    ByteSink sink;
    g.saveState(sink);
    const std::size_t body_off = sink.bytes().size();
    prof.saveState(sink);
    const std::string snapshot = sink.take();
    // Saving reads the unbuilt blocks as zeros without building them.
    EXPECT_EQ(prof.shadowStats().coldBlocksLive, st.coldBlocksLive);

    vg::Guest g2("cold");
    core::SigilProfiler prof2;
    g2.addTool(&prof2);
    ByteSource src(snapshot.data(), snapshot.size());
    ASSERT_TRUE(g2.restoreState(src));
    ASSERT_TRUE(prof2.restoreState(src));
    ByteSink again;
    prof2.saveState(again);
    EXPECT_EQ(again.bytes(), snapshot.substr(body_off));
    EXPECT_EQ(prof2.shadowStats().coldArraysLive, 1u);
    EXPECT_EQ(prof2.shadowStats().coldBlocksLive, 1u);
    EXPECT_EQ(prof2.shadowStats().bytesLive, st.bytesLive);
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
    EXPECT_TRUE(sm.find(top));
    EXPECT_FALSE(sm.find(0));
}

TEST(ShadowMemory, StatePersistsAcrossLookups)
{
    ShadowMemory sm;
    sm.lookup(5).hot.writer = ctxId(sm, 42);
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
    ShadowRef o = sm.lookup(100);
    EXPECT_EQ(o.cold, nullptr);
    EXPECT_EQ(sm.stats().coldArraysLive, 0u);
    EXPECT_EQ(sm.liveBytes(), ShadowMemory::chunkHotBytes());

    ShadowRef c = sm.lookup(100, /*want_cold=*/true);
    ASSERT_NE(c.cold, nullptr);
    c.cold->runReads = 5;
    EXPECT_EQ(sm.stats().coldArraysLive, 1u);
    EXPECT_EQ(sm.liveBytes(), ShadowMemory::chunkHotBytes() +
                                  ShadowMemory::chunkColdBytes());

    // Once materialized, plain lookups see the same array.
    ShadowRef again = sm.lookup(100);
    ASSERT_NE(again.cold, nullptr);
    EXPECT_EQ(again.cold->runReads, 5u);

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
    sm.lookup(0 * ShadowMemory::kChunkUnits).hot.writer = ctxId(sm, 10);
    sm.lookup(1 * ShadowMemory::kChunkUnits).hot.writer = ctxId(sm, 11);
    sm.lookup(0 * ShadowMemory::kChunkUnits); // touch chunk 0 again
    sm.lookup(2 * ShadowMemory::kChunkUnits); // evicts chunk 1
    EXPECT_EQ(sm.stats().evictions, 1u);
    EXPECT_EQ(sm.stats().chunksLive, 2u);
    // Chunk 0 survived with its state; chunk 1's state is gone.
    EXPECT_EQ(sm.stamps().writer(sm.find(0).hot->writer).ctx, 10);
    EXPECT_FALSE(sm.find(ShadowMemory::kChunkUnits));
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
    sm.setEvictionHandler(perUnit([&](std::uint64_t unit, ShadowRef) {
        evicted.push_back(unit / kC);
    }));
    const StampId w = ctxId(sm, 1);
    for (std::uint64_t c = 0; c < 4; ++c)
        sm.lookup(c * kC).hot.writer = w; // LRU order 0,1,2,3
    sm.lookup(1 * kC);                    // order 0,2,3,1
    sm.lookup(0 * kC);                    // order 2,3,1,0
    sm.lookup(4 * kC).hot.writer = w;     // evicts 2
    sm.lookup(5 * kC).hot.writer = w;     // evicts 3
    sm.lookup(6 * kC).hot.writer = w;     // evicts 1
    sm.lookup(7 * kC).hot.writer = w;     // evicts 0
    EXPECT_EQ(evicted, (std::vector<std::uint64_t>{2, 3, 1, 0}));
    EXPECT_EQ(sm.stats().evictions, 4u);
}

TEST(ShadowMemory, EvictionHandlerSeesOnlyTouchedUnits)
{
    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    std::set<std::uint64_t> evicted_units;
    sm.setEvictionHandler(perUnit([&](std::uint64_t unit, ShadowRef) {
        evicted_units.insert(unit);
    }));
    sm.lookup(7).hot.writer = ctxId(sm, 1);
    sm.lookup(9); // touched but never written — still reported
    sm.lookup(ShadowMemory::kChunkUnits + 3).hot.writer = ctxId(sm, 1);
    sm.lookup(2 * ShadowMemory::kChunkUnits); // evicts the oldest chunk
    EXPECT_EQ(evicted_units, (std::set<std::uint64_t>{7, 9}));
}

TEST(ShadowMemory, SweepFiltersSkipColdlessChunksAndIdleUnits)
{
    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    std::vector<std::uint64_t> evicted_units;
    sm.setEvictionHandler(
        perUnit([&](std::uint64_t unit, ShadowRef) {
            evicted_units.push_back(unit);
        }),
        SweepFilter::PendingRuns);
    // Chunk 0: no cold array — its eviction must visit nothing.
    sm.lookup(7).hot.writer = ctxId(sm, 1);
    sm.lookup(ShadowMemory::kChunkUnits);
    sm.lookup(2 * ShadowMemory::kChunkUnits); // evicts chunk 0
    EXPECT_TRUE(evicted_units.empty());

    // Chunk 1 gains a cold array; only its reader-holding unit is
    // reported under PendingRuns.
    ShadowRef o = sm.lookup(ShadowMemory::kChunkUnits + 4,
                            /*want_cold=*/true);
    o.hot.reader = 1;
    sm.lookup(ShadowMemory::kChunkUnits + 9); // touched, no reader
    sm.lookup(2 * ShadowMemory::kChunkUnits); // chunk 1 becomes LRU
    sm.lookup(3 * ShadowMemory::kChunkUnits); // evicts chunk 1
    EXPECT_EQ(evicted_units,
              (std::vector<std::uint64_t>{ShadowMemory::kChunkUnits + 4}));

    // ColdChunks: every touched unit of cold chunks, reader or not.
    std::vector<std::uint64_t> swept;
    sm.lookup(5 * ShadowMemory::kChunkUnits + 1, /*want_cold=*/true);
    sm.forEach(perUnit([&](std::uint64_t unit,
                   ShadowRef) { swept.push_back(unit); }),
               SweepFilter::ColdChunks);
    EXPECT_EQ(swept, (std::vector<std::uint64_t>{
                         5 * ShadowMemory::kChunkUnits + 1}));
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

    // PendingRuns splits touched runs at units with no recorded
    // reader.
    ShadowMemory sc;
    sc.span(10, 19, true, [](ShadowMemory::Run run) {
        for (std::size_t i = 0; i < run.count; ++i)
            run.hot[i].reader = (i == 3 || i == 4) ? 0 : 1;
    });
    runs.clear();
    sc.forEach(
        [&](const ShadowMemory::Run &run) {
            runs.push_back({run.firstUnit, run.count});
        },
        SweepFilter::PendingRuns);
    EXPECT_EQ(runs, (std::vector<std::pair<std::uint64_t, std::size_t>>{
                        {10, 3}, {15, 5}}));
}

TEST(ShadowMemory, EvictedChunkRecreatedFresh)
{
    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory sm(cfg);
    sm.lookup(0).hot.writer = ctxId(sm, 99);
    sm.lookup(ShadowMemory::kChunkUnits);
    sm.lookup(2 * ShadowMemory::kChunkUnits); // evicts chunk of unit 0
    ShadowRef o = sm.lookup(0);               // recreated
    EXPECT_FALSE(everWritten(o));
    EXPECT_EQ(sm.stats().chunksAllocated, 4u);
}

TEST(ShadowMemory, ForEachVisitsOnlyTouchedUnits)
{
    ShadowMemory sm;
    sm.lookup(1).hot.writer = ctxId(sm, 1);
    sm.lookup(ShadowMemory::kChunkUnits + 2).hot.writer = ctxId(sm, 2);
    sm.lookup(ShadowMemory::kChunkUnits + 5); // touched, default state
    std::vector<std::uint64_t> seen;
    int written = 0;
    sm.forEach(perUnit([&](std::uint64_t unit, ShadowRef o) {
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
        sm.lookup(c * kC + 1).hot.writer = w;
    std::vector<std::uint64_t> order;
    sm.forEach(perUnit([&](std::uint64_t unit, ShadowRef) {
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
        EXPECT_EQ(run.cold, nullptr); // never requested
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
    sm.forEach(perUnit([&](std::uint64_t, ShadowRef) { ++visited; }));
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
            b.lookup(u).hot.writer = wb;
    }
    EXPECT_EQ(a.stats().chunksAllocated, b.stats().chunksAllocated);
    EXPECT_EQ(a.liveBytes(), b.liveBytes());
    std::vector<std::pair<std::uint64_t, vg::ContextId>> va, vb;
    a.forEach(perUnit([&](std::uint64_t u, ShadowRef o) {
        va.push_back({u, writerCtx(a, o)});
    }));
    b.forEach(perUnit([&](std::uint64_t u, ShadowRef o) {
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
        perUnit([&](std::uint64_t u, ShadowRef) { ea.push_back(u); }));
    b.setEvictionHandler(
        perUnit([&](std::uint64_t u, ShadowRef) { eb.push_back(u); }));
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
            b.lookup(u).hot.writer = wb;
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
    // Cold: the full per-unit re-use record.
    EXPECT_EQ(ShadowMemory::chunkColdBytes(),
              ShadowMemory::kChunkUnits * sizeof(ShadowCold));
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
    // Chunks created out of address order, half of them with cold
    // state, so both size classes are handed out.
    const std::uint64_t order[] = {5, 0, 17, 3, 1000, 2, 64, 9};
    auto touch = [&](ShadowMemory &sm) {
        for (std::uint64_t c : order)
            sm.lookup(unitIn(c), c % 2 == 1);
    };
    std::vector<ShadowPtr> first;
    {
        ShadowMemory sm;
        touch(sm);
        for (std::uint64_t c : order)
            first.push_back(sm.find(unitIn(c)));
    }
    ShadowMemory sm;
    touch(sm);
    for (std::size_t i = 0; i < std::size(order); ++i) {
        const ShadowPtr p = sm.find(unitIn(order[i]));
        ASSERT_TRUE(p);
        EXPECT_EQ(p.hot, first[i].hot) << "chunk " << order[i];
        EXPECT_EQ(p.cold, first[i].cold) << "chunk " << order[i];
        EXPECT_EQ(p.cold != nullptr, order[i] % 2 == 1);
    }
}

TEST(ShadowSlotPool, ChunkAfterEvictionTakesLowestFreeSlot)
{
    // Arrays are handed out lowest free slot first, so with no release
    // in between the slots of a, b, c, d ascend in that order.
    auto a = std::make_unique<ShadowMemory>();
    a->lookup(unitIn(0), true);
    a->lookup(unitIn(1), true);
    const ShadowPtr a0 = a->find(unitIn(0));
    const ShadowPtr a1 = a->find(unitIn(1));

    ShadowMemory::Config cfg;
    cfg.maxChunks = 2;
    ShadowMemory b(cfg);
    b.lookup(unitIn(10), true);
    b.lookup(unitIn(11), true);
    const ShadowPtr b10 = b.find(unitIn(10));

    // Free a's two slots, then evict chunk 10: three slots are free.
    a.reset();
    b.lookup(unitIn(12), true);
    EXPECT_EQ(b.stats().evictions, 1u);
    ShadowPtr p = b.find(unitIn(12));
    EXPECT_EQ(p.hot, a0.hot);
    EXPECT_EQ(p.cold, a0.cold);
    // Evicts chunk 11; a's second slot is now the lowest free one.
    b.lookup(unitIn(13), true);
    p = b.find(unitIn(13));
    EXPECT_EQ(p.hot, a1.hot);
    EXPECT_EQ(p.cold, a1.cold);
    // Evicts chunk 12: its slot (a's first) is the lowest free again.
    b.lookup(unitIn(14), true);
    p = b.find(unitIn(14));
    EXPECT_EQ(p.hot, a0.hot);
    EXPECT_NE(p.hot, b10.hot);
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
        first = sm.find(0).hot;
    }
    ShadowMemory sm;
    sm.lookup(0);
    ShadowHot *hot = sm.find(0).hot;
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
            sm.lookup(unit).hot.writer = ctxId(sm, ctx);
            oracle[unit] = ctx;
        } else {
            auto it = oracle.find(unit);
            ShadowRef o = sm.lookup(unit);
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

INSTANTIATE_TEST_SUITE_P(Seeds, StampTableProperty,
                         ::testing::Values(3, 5, 8, 13));

} // namespace
} // namespace sigil::shadow
