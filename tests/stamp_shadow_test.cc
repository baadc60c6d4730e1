/**
 * @file
 * Unit tests of the stamp-interned shadow memory's checkpoint body.
 *
 * Interned stamp tuples outlive the evicted chunks that referenced
 * them, and restore refuses a body whose writer or reader table or
 * mode/ROI state no run can reach. The property that the compressed span walk
 * matches the per-unit reference walk, and that mid-stream checkpoints
 * resume bit-identically, is part of the differential matrix
 * (tests/differential_test.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/sigil_profiler.hh"
#include "support/serial.hh"
#include "vg/guest.hh"

namespace sigil {
namespace {

// Stamp-table growth survives eviction of every referencing unit. ----

TEST(StampShadowProperty, StampTuplesOutliveEvictedChunks)
{
    core::SigilConfig cfg;
    cfg.maxShadowChunks = 2;
    cfg.collectReuse = true;
    vg::Guest g("stamp_evict");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    g.enter("main");
    // Touch many distinct chunks from many contexts: every chunk but
    // the last two is evicted, yet the interned tuples stay resolvable
    // (and keep their ids — a checkpoint must serialize all of them).
    for (int i = 0; i < 32; ++i) {
        char fn[8];
        std::snprintf(fn, sizeof fn, "f%d", i);
        g.enter(fn);
        vg::Addr addr =
            vg::kHeapBase + static_cast<vg::Addr>(i) * (64 << 12);
        g.write(addr, 8);
        g.read(addr, 8);
        g.leave();
    }
    g.leave();
    g.finish();
    const shadow::ShadowMemory &sm = prof.shadowMemory();
    EXPECT_GT(prof.shadowStats().evictions, 20u);
    // Writer tuples vary by context: far more tuples were interned
    // than the two resident chunks could reference.
    EXPECT_GT(sm.stamps().writerCount(), 30u);
    // And the checkpoint carries the full table: restore + re-save is
    // byte-stable even though most tuples live only in the table.
    ByteSink sink;
    prof.saveState(sink);
    core::SigilProfiler prof2(cfg);
    ByteSource src(sink.bytes().data(), sink.bytes().size());
    ASSERT_TRUE(prof2.restoreState(src));
    ByteSink sink2;
    prof2.saveState(sink2);
    EXPECT_EQ(sink.bytes(), sink2.bytes());
}

// A checkpoint with a malformed reader table is refused. -------------

TEST(StampShadowProperty, RestoreRefusesMalformedReaderTable)
{
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    vg::Guest g("readers");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    vg::Addr a = g.alloc(64);
    g.enter("main");
    g.write(a, 64);
    for (int i = 0; i < 4; ++i) {
        g.enter(i % 2 == 0 ? "f" : "g");
        g.read(a, 8);
        g.leave();
    }
    g.leave();
    g.finish();
    ByteSink sink;
    prof.saveState(sink);
    const std::string body = sink.take();

    // Locate the reader table's entries (u64 call, u32 ctx each) in
    // the body, and two entries of different calls and contexts.
    const shadow::StampTable &stamps = prof.shadowMemory().stamps();
    ByteSink entries;
    std::size_t first = 0, other = 0;
    for (std::size_t i = 1; i < stamps.readerCount(); ++i) {
        const shadow::ReaderStamp &r = stamps.reader(i);
        entries.u64(r.call);
        entries.u32(static_cast<std::uint32_t>(r.ctx));
        if (r.call == 0)
            continue;
        if (first == 0)
            first = i;
        else if (other == 0 && r.ctx != stamps.reader(first).ctx)
            other = i;
    }
    ASSERT_NE(other, 0u);
    const std::size_t at = body.find(entries.bytes());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(body.find(entries.bytes(), at + 1), std::string::npos);
    auto call_at = [&](std::size_t i) { return at + (i - 1) * 12; };
    auto with_call = [&](std::size_t i, std::uint64_t call) {
        std::string bad = body;
        ByteSink v;
        v.u64(call);
        bad.replace(call_at(i), 8, v.bytes());
        return bad;
    };
    auto restores = [&](const std::string &payload) {
        core::SigilProfiler fresh(cfg);
        ByteSource src(payload.data(), payload.size());
        return fresh.restoreState(src) && src.ok();
    };

    ASSERT_TRUE(restores(body));
    // One call read under two contexts.
    EXPECT_FALSE(restores(with_call(other, stamps.reader(first).call)));
    // A call number the reader index cannot be sized for.
    EXPECT_FALSE(restores(with_call(first, std::uint64_t{1} << 40)));
    EXPECT_FALSE(restores(with_call(first, ~std::uint64_t{0})));
}

// A checkpoint with a malformed writer table is refused. -------------

TEST(StampShadowProperty, RestoreRefusesMalformedWriterTable)
{
    core::SigilConfig cfg;
    cfg.collectEvents = true;
    vg::Guest g("writers");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    vg::Addr a = g.alloc(64);
    g.enter("main");
    for (int i = 0; i < 4; ++i) {
        g.enter(i % 2 == 0 ? "f" : "g");
        g.write(a + 8 * i, 8);
        g.leave();
    }
    g.read(a, 32);
    g.leave();
    g.finish();
    ByteSink sink;
    prof.saveState(sink);
    const std::string body = sink.take();

    // Locate the writer table's entries (u64 seq, u32 ctx, u32 thread
    // each) in the body, and two segments of different contexts.
    const shadow::StampTable &stamps = prof.shadowMemory().stamps();
    ByteSink entries;
    std::size_t first = 0, other = 0;
    for (std::size_t i = 1; i < stamps.writerCount(); ++i) {
        const shadow::WriterStamp &w = stamps.writer(i);
        entries.u64(w.seq);
        entries.u32(static_cast<std::uint32_t>(w.ctx));
        entries.u32(w.thread);
        if (w.seq == 0)
            continue;
        if (first == 0)
            first = i;
        else if (other == 0 && w.ctx != stamps.writer(first).ctx)
            other = i;
    }
    ASSERT_NE(other, 0u);
    const std::size_t at = body.find(entries.bytes());
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(body.find(entries.bytes(), at + 1), std::string::npos);
    auto entry_at = [&](std::size_t i) { return at + (i - 1) * 16; };
    auto with_seq = [&](std::size_t i, std::uint64_t seq) {
        std::string bad = body;
        ByteSink v;
        v.u64(seq);
        bad.replace(entry_at(i), 8, v.bytes());
        return bad;
    };
    auto with_thread = [&](std::size_t i, std::uint32_t thread) {
        std::string bad = body;
        ByteSink v;
        v.u32(thread);
        bad.replace(entry_at(i) + 12, 4, v.bytes());
        return bad;
    };
    auto restores = [&](const std::string &payload) {
        core::SigilProfiler fresh(cfg);
        ByteSource src(payload.data(), payload.size());
        return fresh.restoreState(src) && src.ok();
    };

    ASSERT_TRUE(restores(body));
    // One segment listed under two contexts.
    EXPECT_FALSE(restores(with_seq(other, stamps.writer(first).seq)));
    // A seq the saving run had not numbered, and one the seq index cannot
    // be sized for.
    EXPECT_FALSE(restores(with_seq(first, std::uint64_t{1} << 20)));
    EXPECT_FALSE(restores(with_seq(first, ~std::uint64_t{0})));
    // A thread the saving run never switched to.
    EXPECT_FALSE(restores(with_thread(first, 1)));
    EXPECT_FALSE(restores(with_thread(first, ~std::uint32_t{0})));
}

// A checkpoint with a mode or ROI state the config cannot reach is
// refused. ----------------------------------------------------------

/** One tampered field of a profiler body's mode/ROI state. */
struct LadderTamper
{
    const char *name;
    bool collectReuse;
    bool roiOnly;
    /**
     * Byte of the state: 0 collecting, 1 level, 2 re-use, 3 classify;
     * kFailureSlot is the low byte of the allocation-failure slot.
     */
    int field;
    std::uint8_t value;
};

constexpr int kFailureSlot = 4;

void
PrintTo(const LadderTamper &t, std::ostream *os)
{
    *os << t.name;
}

class RestoreLadderState : public ::testing::TestWithParam<LadderTamper>
{
};

TEST_P(RestoreLadderState, RefusesUnreachableState)
{
    const LadderTamper &t = GetParam();
    core::SigilConfig cfg;
    cfg.collectReuse = t.collectReuse;
    cfg.roiOnly = t.roiOnly;
    vg::Guest g("ladder");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    g.roiBegin();
    g.enter("main");
    g.write(vg::kHeapBase, 8);
    g.read(vg::kHeapBase, 8);
    g.roiEnd(); // roiOnly: saved while collection is paused
    ByteSink sink;
    prof.saveState(sink);
    const std::string body = sink.take();

    // Body header: version, provenance varint, granularity, u64
    // maxShadowChunks, four config bytes; the mode/ROI state follows,
    // written as the only state a run reaches.
    constexpr std::size_t kStateAt = 1 + 1 + 1 + 8 + 4;
    ASSERT_GT(body.size(), kStateAt + 3);
    EXPECT_EQ(body[kStateAt], t.roiOnly ? 0 : 1);
    EXPECT_EQ(body[kStateAt + 1], 0);
    EXPECT_EQ(body[kStateAt + 2], t.collectReuse ? 1 : 0);
    EXPECT_EQ(body[kStateAt + 3], 1);

    // The shadow stats: four counters, the allocation-failure slot
    // (always zero), the byte peak.
    const shadow::ShadowStats &st = prof.shadowStats();
    ByteSink stats;
    stats.u64(st.chunksAllocated);
    stats.u64(st.chunksLive);
    stats.u64(st.chunksPeak);
    stats.u64(st.evictions);
    stats.u64(0);
    stats.u64(st.bytesPeak);
    const std::size_t stats_at = body.find(stats.bytes());
    ASSERT_NE(stats_at, std::string::npos);
    ASSERT_EQ(body.find(stats.bytes(), stats_at + 1), std::string::npos);

    auto restores = [&](const std::string &payload) {
        core::SigilProfiler fresh(cfg);
        ByteSource src(payload.data(), payload.size());
        return fresh.restoreState(src) && src.ok();
    };
    ASSERT_TRUE(restores(body));
    const std::size_t at =
        t.field == kFailureSlot ? stats_at + 4 * 8 : kStateAt + t.field;
    std::string bad = body;
    ASSERT_NE(static_cast<std::uint8_t>(bad[at]), t.value);
    bad[at] = static_cast<char>(t.value);
    EXPECT_FALSE(restores(bad));
}

INSTANTIATE_TEST_SUITE_P(
    Tampered, RestoreLadderState,
    ::testing::Values(
        LadderTamper{"level_7", true, false, 1, 7},
        LadderTamper{"reuse_on_without_collect_reuse", false, false, 2, 1},
        LadderTamper{"classify_off_at_level_0", true, false, 3, 0},
        LadderTamper{"paused_without_roi", true, false, 0, 0},
        LadderTamper{"level_1_without_collect_reuse", false, false, 1, 1},
        LadderTamper{"reuse_on_at_level_1", true, true, 1, 1},
        LadderTamper{"classify_on_at_level_2", true, false, 1, 2},
        LadderTamper{"collecting_byte_2", true, true, 0, 2},
        LadderTamper{"alloc_failures_nonzero", true, false, kFailureSlot,
                     1}),
    [](const ::testing::TestParamInfo<LadderTamper> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace sigil
