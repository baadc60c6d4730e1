/**
 * @file
 * Differential test of the span-oriented shadow hot path.
 *
 * Replays randomized traces — mixed access sizes, unaligned addresses,
 * byte and line granularity, multiple threads, ROI windows, with and
 * without a shadow-memory limit (evicting while ROI collection is
 * paused included), and per-object attribution — through two
 * SigilProfiler instances: one on the span path and one on the
 * retained per-unit reference path (SigilConfig::referenceShadowPath).
 * The serialized profiles (aggregates, communication edges, thread
 * edges, re-use breakdowns, lifetime histograms, shadow stats, object
 * rows) and event traces must be bitwise identical.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/rng.hh"
#include "vg/guest.hh"

namespace sigil {
namespace {

struct TraceParams
{
    std::uint64_t seed;
    unsigned granularityShift;
    std::size_t maxShadowChunks;
    bool collectReuse;
    bool collectEvents;
    bool roiOnly;
    /** Per-object attribution over tagged allocations of the window. */
    bool collectObjects = false;
};

/** Drive one deterministic pseudo-random workload into the guest. */
void
driveTrace(vg::Guest &g, const TraceParams &p)
{
    Rng rng(p.seed);
    const char *fns[] = {"alpha", "beta", "gamma", "delta",
                         "epsilon", "zeta", "eta", "theta"};
    vg::ThreadId threads[3] = {0, g.spawnThread(), g.spawnThread()};
    if (p.collectObjects) {
        // Tag the hot window (and a little beyond) as a run of
        // allocations, so unique bytes are summed per run and object.
        while (g.heapBytes() < (std::uint64_t{1} << 16) + 4096)
            g.alloc(1 + rng.nextBounded(6000), "obj");
    }

    g.enter("main");
    if (p.roiOnly)
        g.roiBegin();
    bool in_roi = true;
    for (int i = 0; i < 6000; ++i) {
        // Addresses: mostly a hot 64KiB window (chunk re-touches and,
        // under a limit, evictions in byte mode), sometimes a cold
        // 16MiB window (chunk churn in both granularities).
        vg::Addr addr = vg::kHeapBase;
        addr += (rng.nextBounded(8) == 0) ? rng.nextBounded(1 << 24)
                                          : rng.nextBounded(1 << 16);
        // Sizes: small unaligned, medium, and chunk-crossing large.
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
    for (vg::ThreadId t : threads) {
        g.switchThread(t);
        while (g.callDepth() > 0)
            g.leave();
    }
    g.finish();
}

/** Run the workload through one profiler; serialize its outputs. */
void
runOnce(const TraceParams &p, bool reference_path, std::string &profile,
        std::string &events)
{
    core::SigilConfig cfg;
    cfg.granularityShift = p.granularityShift;
    cfg.maxShadowChunks = p.maxShadowChunks;
    cfg.collectReuse = p.collectReuse;
    cfg.collectEvents = p.collectEvents;
    cfg.roiOnly = p.roiOnly;
    cfg.collectObjects = p.collectObjects;
    cfg.referenceShadowPath = reference_path;

    vg::Guest g("shadow_span_diff");
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    driveTrace(g, p);

    std::ostringstream pos;
    const core::SigilProfile prof_out = prof.takeProfile();
    core::writeProfile(pos, prof_out);
    for (const core::SigilProfile::ObjectRow &o : prof_out.objects) {
        pos << "object " << o.tag << ' ' << o.base << ' ' << o.size << ' '
            << o.readBytes << ' ' << o.writeBytes << ' '
            << o.uniqueReadBytes << '\n';
    }
    profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    events = eos.str();
}

class ShadowSpanDifferential
    : public ::testing::TestWithParam<TraceParams>
{};

TEST_P(ShadowSpanDifferential, SpanPathMatchesPerUnitReference)
{
    const TraceParams &p = GetParam();
    std::string ref_profile, ref_events, span_profile, span_events;
    runOnce(p, true, ref_profile, ref_events);
    runOnce(p, false, span_profile, span_events);
    EXPECT_EQ(ref_profile, span_profile);
    EXPECT_EQ(ref_events, span_events);
    // Guard against the vacuous pass: the trace must have produced a
    // non-trivial profile.
    EXPECT_GT(ref_profile.size(), 100u);
    if (p.collectObjects) {
        EXPECT_NE(ref_profile.find("object obj"), std::string::npos);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, ShadowSpanDifferential,
    ::testing::Values(
        // Byte granularity, unlimited shadow, full collection.
        TraceParams{101, 0, 0, true, true, false},
        // Byte granularity under a tight chunk limit (evictions).
        TraceParams{202, 0, 6, true, true, false},
        // Line granularity, unlimited.
        TraceParams{303, 6, 0, true, true, false},
        // Line granularity under a chunk limit.
        TraceParams{404, 6, 4, true, true, false},
        // Baseline mode: no re-use tracking, no events.
        TraceParams{505, 0, 0, false, false, false},
        // ROI-gated collection with re-use.
        TraceParams{606, 0, 0, true, false, true},
        // Line mode, no re-use (line totals still collected).
        TraceParams{707, 6, 0, false, false, false},
        // Per-object unique bytes, summed per stamp-pair run.
        TraceParams{808, 0, 0, true, true, false, true},
        // Evictions while ROI collection is paused, with per-object
        // attribution.
        TraceParams{909, 0, 6, true, true, true, true}),
    [](const ::testing::TestParamInfo<TraceParams> &info) {
        const TraceParams &p = info.param;
        std::string name = "seed" + std::to_string(p.seed) + "_g" +
                           std::to_string(p.granularityShift) + "_max" +
                           std::to_string(p.maxShadowChunks);
        if (p.collectReuse)
            name += "_reuse";
        if (p.collectEvents)
            name += "_events";
        if (p.roiOnly)
            name += "_roi";
        if (p.collectObjects)
            name += "_objects";
        return name;
    });

} // namespace
} // namespace sigil
