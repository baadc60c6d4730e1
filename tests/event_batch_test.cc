/**
 * @file
 * Differential test of the batched event transport.
 *
 * Replays the same randomized workloads as shadow_span_test through a
 * SigilProfiler and a CgTool under four dispatch modes — per-event
 * virtuals, sync-batched (Tool::processBatch), sync-batched with a tiny
 * buffer (flush-boundary stress), and the asynchronous double-buffered
 * pipeline — and requires the serialized profiles and event traces to
 * be bitwise identical across all of them. Also covers the binary trace
 * format: the recorder's output under batching, ROI round trips, the
 * replayTraceFile format sniff (SGB3 as recorded and SGB2 transcoded
 * from it), and rejection of garbage and truncated inputs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cg/cg_tool.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/rng.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

#include "trace_fixtures.hh"

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
};

/** Guest dispatch mode under test. */
enum class Mode { kPerEvent, kBatched, kBatchedTiny, kAsync };

vg::GuestConfig
guestConfig(Mode mode)
{
    vg::GuestConfig cfg;
    switch (mode) {
      case Mode::kPerEvent:
        break;
      case Mode::kBatched:
        cfg.batchEvents = true;
        break;
      case Mode::kBatchedTiny:
        cfg.batchEvents = true;
        cfg.eventBufferEvents = 7; // stress flush boundaries
        break;
      case Mode::kAsync:
        cfg.asyncTools = true;
        break;
    }
    return cfg;
}

/** Drive one deterministic pseudo-random workload into the guest. */
void
driveTrace(vg::Guest &g, const TraceParams &p)
{
    Rng rng(p.seed);
    const char *fns[] = {"alpha", "beta", "gamma", "delta",
                         "epsilon", "zeta", "eta", "theta"};
    vg::ThreadId threads[3] = {0, g.spawnThread(), g.spawnThread()};

    g.enter("main");
    if (p.roiOnly)
        g.roiBegin();
    bool in_roi = true;
    for (int i = 0; i < 6000; ++i) {
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
        if (g.callDepth() > 0 && rng.nextBounded(32) == 0)
            g.branch(rng.nextBounded(2) == 0);
    }
    for (vg::ThreadId t : threads) {
        g.switchThread(t);
        while (g.callDepth() > 0)
            g.leave();
    }
    g.finish();
}

/** Serialize a CgProfile for bitwise comparison. */
std::string
dumpCg(const cg::CgProfile &profile)
{
    std::ostringstream os;
    for (const cg::CgRow &r : profile.rows) {
        const cg::CgCounters &c = r.self;
        os << r.path << '\t' << c.instructions << '\t' << c.iops << '\t'
           << c.flops << '\t' << c.reads << '\t' << c.readBytes << '\t'
           << c.writes << '\t' << c.writeBytes << '\t' << c.d1Misses
           << '\t' << c.i1Misses << '\t' << c.llMisses << '\t'
           << c.branches << '\t' << c.branchMispredicts << '\t'
           << c.calls << '\t' << r.incl.cycleEstimate() << '\n';
    }
    return os.str();
}

struct RunResult
{
    std::string profile;
    std::string events;
    std::string cg;
};

/** Run the workload through both tools under one dispatch mode. */
RunResult
runOnce(const TraceParams &p, Mode mode)
{
    core::SigilConfig cfg;
    cfg.granularityShift = p.granularityShift;
    cfg.maxShadowChunks = p.maxShadowChunks;
    cfg.collectReuse = p.collectReuse;
    cfg.collectEvents = p.collectEvents;
    cfg.roiOnly = p.roiOnly;

    vg::Guest g("event_batch_diff", guestConfig(mode));
    core::SigilProfiler prof(cfg);
    cg::CgTool cgtool;
    g.addTool(&prof);
    g.addTool(&cgtool);
    driveTrace(g, p);

    RunResult out;
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    out.profile = pos.str();
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    out.events = eos.str();
    out.cg = dumpCg(cgtool.takeProfile());
    return out;
}

class EventBatchDifferential : public ::testing::TestWithParam<TraceParams>
{};

TEST_P(EventBatchDifferential, BatchedModesMatchPerEventDispatch)
{
    const TraceParams &p = GetParam();
    RunResult ref = runOnce(p, Mode::kPerEvent);
    RunResult batched = runOnce(p, Mode::kBatched);
    RunResult tiny = runOnce(p, Mode::kBatchedTiny);
    RunResult async = runOnce(p, Mode::kAsync);

    EXPECT_EQ(ref.profile, batched.profile);
    EXPECT_EQ(ref.events, batched.events);
    EXPECT_EQ(ref.cg, batched.cg);

    EXPECT_EQ(ref.profile, tiny.profile);
    EXPECT_EQ(ref.events, tiny.events);
    EXPECT_EQ(ref.cg, tiny.cg);

    EXPECT_EQ(ref.profile, async.profile);
    EXPECT_EQ(ref.events, async.events);
    EXPECT_EQ(ref.cg, async.cg);

    // Guard against the vacuous pass.
    EXPECT_GT(ref.profile.size(), 100u);
    EXPECT_GT(ref.cg.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, EventBatchDifferential,
    ::testing::Values(
        TraceParams{101, 0, 0, true, true, false},
        TraceParams{202, 0, 6, true, true, false},
        TraceParams{303, 6, 0, true, true, false},
        TraceParams{404, 6, 4, true, true, false},
        TraceParams{505, 0, 0, false, false, false},
        TraceParams{606, 0, 0, true, false, true},
        TraceParams{707, 6, 0, false, false, false}),
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
        return name;
    });

TEST(EventBatch, SyncMakesToolStateCurrentMidRun)
{
    vg::GuestConfig cfg;
    cfg.asyncTools = true;
    vg::Guest g("sync_mid_run", cfg);
    core::SigilProfiler prof;
    g.addTool(&prof);

    g.enter("main");
    vg::Addr buf = g.alloc(4096, "buf");
    for (int i = 0; i < 100; ++i) {
        g.write(buf + static_cast<vg::Addr>(i) * 8, 8);
        g.read(buf + static_cast<vg::Addr>(i) * 8, 8);
    }
    g.sync();
    vg::ContextId main_ctx = g.currentContext();
    EXPECT_EQ(prof.aggregates(main_ctx).readBytes, 800u);
    // More work after the sync still lands.
    g.write(buf, 64);
    g.read(buf, 64);
    g.leave();
    g.finish();
    EXPECT_EQ(prof.aggregates(main_ctx).readBytes, 864u);
}

TEST(EventBatch, RecordersProduceIdenticalStreamsUnderBatching)
{
    // The recorder must emit the same trace whether it sees per-event
    // virtuals or batches (its native processBatch).
    auto record = [](bool batched) {
        vg::GuestConfig cfg;
        cfg.batchEvents = batched;
        vg::Guest g("recorder_diff", cfg);
        std::ostringstream os(std::ios::binary);
        vg::BinaryTraceRecorder rec(os);
        g.addTool(&rec);
        driveTrace(g, TraceParams{909, 0, 0, true, true, false});
        return os.str();
    };
    std::string per_event = record(false);
    std::string batched = record(true);
    EXPECT_EQ(per_event, batched);
    EXPECT_GT(per_event.size(), 1000u);
}

/** Record one workload as a binary trace, per-event. */
std::string
recordBinary(const TraceParams &p)
{
    vg::Guest g("trace_roundtrip");
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder brec(bos);
    g.addTool(&brec);
    driveTrace(g, p);
    return bos.str();
}

TEST(BinaryTrace, RoiRoundTrips)
{
    // ROI marks survive the trace: an roiOnly profiler sees identical
    // windows live and from the replayed binary trace.
    TraceParams p{2222, 0, 0, true, false, true};

    vg::Guest g("trace_roundtrip");
    core::SigilConfig scfg;
    scfg.roiOnly = true;
    core::SigilProfiler live(scfg);
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder brec(bos);
    g.addTool(&live);
    g.addTool(&brec);
    driveTrace(g, p);

    std::ostringstream live_pos;
    core::writeProfile(live_pos, live.takeProfile());

    vg::Guest rg("trace_roundtrip");
    core::SigilProfiler prof(scfg);
    rg.addTool(&prof);
    std::istringstream is(bos.str(), std::ios::binary);
    vg::replayBinaryTrace(is, rg);
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());

    EXPECT_EQ(live_pos.str(), pos.str());
}

TEST(BinaryTrace, FileSniffSelectsFormat)
{
    TraceParams p{4444, 0, 0, false, false, false};
    std::string sgb3 = recordBinary(p);
    std::string sgb2 = fixtures::sgb2FromSgb3(sgb3);

    std::string dir = ::testing::TempDir();
    std::string sgb2_path = dir + "/sniff_trace.sgb2";
    std::string sgb3_path = dir + "/sniff_trace.sgb3";
    std::ofstream(sgb2_path, std::ios::binary) << sgb2;
    std::ofstream(sgb3_path, std::ios::binary) << sgb3;

    auto replay_file = [](const std::string &path) {
        vg::Guest g("trace_roundtrip");
        core::SigilProfiler prof;
        g.addTool(&prof);
        EXPECT_GT(vg::replayTraceFile(path, g), 1000u);
        std::ostringstream pos;
        core::writeProfile(pos, prof.takeProfile());
        return pos.str();
    };
    std::string from_sgb3 = replay_file(sgb3_path);
    EXPECT_EQ(replay_file(sgb2_path), from_sgb3);
    EXPECT_GT(from_sgb3.size(), 100u);
    std::remove(sgb2_path.c_str());
    std::remove(sgb3_path.c_str());
}

TEST(BinaryTraceDeath, RejectsGarbage)
{
    vg::Guest g("garbage");
    std::istringstream is(std::string("not a trace at all"),
                          std::ios::binary);
    EXPECT_EXIT(vg::replayBinaryTrace(is, g),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(BinaryTraceDeath, RejectsTruncation)
{
    TraceParams p{5555, 0, 0, false, false, false};
    std::string binary = recordBinary(p);
    // A cut mid-block surfaces as a truncation or a corrupt record,
    // never as a silent partial replay.
    std::string truncated = binary.substr(0, binary.size() / 2);
    vg::Guest g("truncated");
    std::istringstream is(truncated, std::ios::binary);
    EXPECT_EXIT(vg::replayBinaryTrace(is, g),
                ::testing::ExitedWithCode(1), "binary trace");
}

} // namespace
} // namespace sigil
