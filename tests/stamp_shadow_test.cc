/**
 * @file
 * Randomized property suite for the stamp-interned compressed shadow
 * memory.
 *
 * Two properties, each over many independently seeded pseudo-random
 * access streams with randomized configurations (granularity, chunk
 * limit, re-use, events, ROI):
 *
 *  1. The compressed span path (8-byte hot units, lazy cold arrays,
 *     word-filled writes) produces profiles and event traces bitwise
 *     identical to the retained per-unit reference path — including
 *     under eviction pressure, where stamp tuples outlive the units
 *     that referenced them.
 *  2. A v3 checkpoint taken mid-stream restores into a continuation
 *     that is bitwise identical to the uninterrupted run; a save →
 *     restore → save round-trip is byte-stable.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>

#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/rng.hh"
#include "support/serial.hh"
#include "vg/guest.hh"

namespace sigil {
namespace {

struct StreamParams
{
    std::uint64_t seed;
    unsigned granularityShift;
    std::size_t maxShadowChunks;
    bool collectReuse;
    bool collectEvents;
    bool roiOnly;
};

/** Derive a randomized configuration from a stream's seed. */
StreamParams
paramsFor(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    StreamParams p;
    p.seed = seed;
    p.granularityShift = rng.nextBounded(2) ? 6 : 0;
    switch (rng.nextBounded(3)) {
    case 0:
        p.maxShadowChunks = 0;
        break;
    case 1:
        p.maxShadowChunks = 4;
        break;
    default:
        p.maxShadowChunks = 8;
        break;
    }
    p.collectReuse = rng.nextBounded(4) != 0;
    p.collectEvents = rng.nextBounded(2) != 0;
    p.roiOnly = rng.nextBounded(4) == 0;
    return p;
}

core::SigilConfig
profilerConfig(const StreamParams &p, bool reference_path = false)
{
    core::SigilConfig cfg;
    cfg.granularityShift = p.granularityShift;
    cfg.maxShadowChunks = p.maxShadowChunks;
    cfg.collectReuse = p.collectReuse;
    cfg.collectEvents = p.collectEvents;
    cfg.roiOnly = p.roiOnly;
    cfg.referenceShadowPath = reference_path;
    return cfg;
}

/**
 * Drive `steps` events of the stream into the guest, consuming the
 * caller's Rng so a stream can be driven in segments (checkpoint
 * between them) and still be byte-identical to one uninterrupted
 * drive. `in_roi` is segment-spanning state for the same reason.
 */
void
driveSegment(vg::Guest &g, Rng &rng, const StreamParams &p, int steps,
             bool &in_roi)
{
    const char *fns[] = {"alpha", "beta", "gamma", "delta",
                         "epsilon", "zeta", "eta", "theta"};
    const vg::ThreadId threads[3] = {0, 1, 2};
    for (int i = 0; i < steps; ++i) {
        vg::Addr addr = vg::kHeapBase;
        addr += (rng.nextBounded(8) == 0) ? rng.nextBounded(1 << 24)
                                          : rng.nextBounded(1 << 16);
        unsigned size;
        switch (rng.nextBounded(8)) {
        case 0:
            size = 1000 + static_cast<unsigned>(rng.nextBounded(9000));
            break;
        case 1:
        case 2:
            size = 64 + static_cast<unsigned>(rng.nextBounded(192));
            break;
        default:
            size = 1 + static_cast<unsigned>(rng.nextBounded(16));
            break;
        }

        switch (rng.nextBounded(16)) {
        case 0:
            if (g.callDepth() < 6)
                g.enter(fns[rng.nextBounded(8)]);
            break;
        case 1:
            if (g.callDepth() > 1)
                g.leave();
            break;
        case 2:
            g.switchThread(threads[rng.nextBounded(3)]);
            if (g.callDepth() == 0)
                g.enter(fns[rng.nextBounded(8)]);
            break;
        case 3:
            g.iop(1 + rng.nextBounded(100));
            break;
        case 4:
            if (p.collectEvents && rng.nextBounded(4) == 0)
                g.barrier();
            break;
        case 5:
            if (p.roiOnly && rng.nextBounded(4) == 0) {
                if (in_roi)
                    g.roiEnd();
                else
                    g.roiBegin();
                in_roi = !in_roi;
            }
            break;
        case 6:
        case 7:
        case 8:
        case 9:
            if (g.callDepth() > 0)
                g.write(addr, size);
            break;
        default:
            if (g.callDepth() > 0)
                g.read(addr, size);
            break;
        }
    }
}

void
drivePrologue(vg::Guest &g, const StreamParams &p)
{
    vg::ThreadId t1 = g.spawnThread();
    vg::ThreadId t2 = g.spawnThread();
    ASSERT_EQ(t1, 1u);
    ASSERT_EQ(t2, 2u);
    g.enter("main");
    if (p.roiOnly)
        g.roiBegin();
}

void
driveEpilogue(vg::Guest &g)
{
    for (vg::ThreadId t : {0, 1, 2}) {
        g.switchThread(static_cast<vg::ThreadId>(t));
        while (g.callDepth() > 0)
            g.leave();
    }
    g.finish();
}

struct StreamResult
{
    std::string profile;
    std::string events;
};

StreamResult
serialize(core::SigilProfiler &prof)
{
    StreamResult out;
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    out.profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    out.events = eos.str();
    return out;
}

/** One uninterrupted run of a stream. */
StreamResult
runStream(const StreamParams &p, bool reference_path, int steps)
{
    vg::Guest g("stamp_prop");
    core::SigilProfiler prof(profilerConfig(p, reference_path));
    g.addTool(&prof);
    drivePrologue(g, p);
    Rng rng(p.seed);
    bool in_roi = true;
    driveSegment(g, rng, p, steps, in_roi);
    driveEpilogue(g);
    return serialize(prof);
}

// Property 1: compressed vs reference, 200 seeded streams. ----------

TEST(StampShadowProperty, CompressedMatchesReferenceOn200Streams)
{
    int nontrivial = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const StreamParams p = paramsFor(seed);
        StreamResult ref = runStream(p, true, 400);
        StreamResult got = runStream(p, false, 400);
        ASSERT_EQ(ref.profile, got.profile) << "seed " << seed;
        ASSERT_EQ(ref.events, got.events) << "seed " << seed;
        if (ref.profile.size() > 100)
            ++nontrivial;
    }
    // Guard against the vacuous pass.
    EXPECT_GT(nontrivial, 150);
}

// Property 2: v3 checkpoint round-trips mid-stream. ------------------

/**
 * Run a stream with a checkpoint after `cut` steps: save the guest and
 * profiler (guest first — its save syncs, catching the profiler up),
 * rebuild both from the snapshot, and continue. Also asserts save →
 * restore → save byte stability of the profiler body.
 */
StreamResult
runStreamWithCheckpoint(const StreamParams &p, int cut, int tail)
{
    auto g = std::make_unique<vg::Guest>("stamp_prop");
    auto prof = std::make_unique<core::SigilProfiler>(
        profilerConfig(p));
    g->addTool(prof.get());
    drivePrologue(*g, p);
    Rng rng(p.seed);
    bool in_roi = true;
    driveSegment(*g, rng, p, cut, in_roi);

    ByteSink sink;
    g->saveState(sink);
    prof->saveState(sink);
    const std::string snapshot = sink.take();

    g.reset();
    prof.reset();

    vg::Guest g2("stamp_prop");
    core::SigilProfiler prof2(profilerConfig(p));
    g2.addTool(&prof2);
    ByteSource src(snapshot.data(), snapshot.size());
    EXPECT_TRUE(g2.restoreState(src));
    EXPECT_TRUE(prof2.restoreState(src));
    EXPECT_TRUE(src.ok());

    // v3 is self-reproducing: a fresh save of the restored profiler
    // re-serializes the identical body.
    ByteSink again;
    prof2.saveState(again);
    ByteSource orig_src(snapshot.data(), snapshot.size());
    // Skip the guest section to locate the profiler body.
    vg::Guest probe("stamp_prop");
    EXPECT_TRUE(probe.restoreState(orig_src));
    const std::size_t body_off = orig_src.pos();
    EXPECT_EQ(again.bytes(), snapshot.substr(body_off));

    driveSegment(g2, rng, p, tail, in_roi);
    driveEpilogue(g2);
    return serialize(prof2);
}

TEST(StampShadowProperty, V3CheckpointResumesBitIdentically)
{
    for (std::uint64_t seed = 301; seed <= 312; ++seed) {
        const StreamParams p = paramsFor(seed);
        StreamResult ref = runStream(p, false, 800);
        StreamResult ss = runStreamWithCheckpoint(p, 400, 400);
        ASSERT_EQ(ref.profile, ss.profile) << "seed " << seed;
        ASSERT_EQ(ref.events, ss.events) << "seed " << seed;
    }
}

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
