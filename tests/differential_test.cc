/**
 * @file
 * The differential matrix: every way Sigil computes a profile must
 * reproduce the reference profiler byte for byte.
 *
 * Each config row runs the workload of tests/trace_fixtures.hh live
 * into one guest that carries three tools: the ReferenceProfiler of
 * tests/reference_profiler.hh, the SigilProfiler under test and a
 * BinaryTraceRecorder. The reference's serialized profile (aggregates,
 * edges, re-use, histograms, the `shadow` row, object rows) and event
 * file are the row's answer. The reference keeps its shadow in a
 * std::map and shares no shadow layout with the profiler, so a fault
 * in ShadowMemory (eviction included) cannot hide in both. Every other
 * leg must match the answer:
 *
 *  - live: the profiler in the same guest, and a mid-stream
 *    saveState / restoreState continuation whose save → restore → save
 *    reproduces the same bytes;
 *  - entry points: the recorded trace replayed in memory, from a stream
 *    and from an mmap'd file, with every ReplayReport counter equal
 *    across them;
 *  - checkpointed replay through both entry points (stream and file):
 *    fresh, resumed, and with the newest checkpoint damaged so resume
 *    falls back to "<path>.prev".
 *
 * The `_objects` rows run the live legs only: allocation tags are not
 * part of the trace. The leg groups are separate parameterized tests
 * over the one row table, so ctest runs them as separate processes;
 * they keep the test IDs of the suites they replace (so
 * ParallelDecodeDifferential names a decoder that is no longer
 * parallel, and SpanPathMatchesPerUnitReference a reference that is no
 * longer a walk of the profiler). 200 seeded random configurations run
 * the live leg, and twelve of them the mid-stream checkpoint leg.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "support/serial.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

#include "reference_profiler.hh"
#include "trace_fixtures.hh"

namespace sigil {
namespace {

using namespace fixtures;

/** Program name of the live guests, their traces and the replays. */
constexpr const char *kProgram = "differential";

/**
 * Events per recorded block: large enough that LZ shrinks the stored
 * payloads below their raw bytes, small enough that a checkpoint every
 * three blocks fires several times per row.
 */
constexpr std::size_t kBlockEvents = 256;

/** Steps of each config row's workload. */
constexpr int kRowSteps = 6000;

const TraceParams kRows[] = {
    // Byte granularity, unlimited shadow, full collection.
    {101, 0, 0, true, true, false},
    // Byte granularity under a tight chunk limit (evictions).
    {202, 0, 6, true, true, false},
    // Line granularity, unlimited.
    {303, 6, 0, true, true, false},
    // Line granularity under a chunk limit.
    {404, 6, 4, true, true, false},
    // Baseline mode: no re-use tracking, no events.
    {505, 0, 0, false, false, false},
    // ROI-gated collection with re-use.
    {606, 0, 0, true, false, true},
    // Line mode, no re-use (line totals still collected).
    {707, 6, 0, false, false, false},
    // Per-object unique bytes, summed per stamp-pair run.
    {808, 0, 0, true, true, false, true},
    // Evictions while ROI collection is paused, with per-object
    // attribution.
    {909, 0, 6, true, true, true, true},
};

/** The rows whose trace carries the whole workload (no objects). */
const std::vector<TraceParams> kTraceRows = [] {
    std::vector<TraceParams> rows;
    std::copy_if(std::begin(kRows), std::end(kRows),
                 std::back_inserter(rows),
                 [](const TraceParams &p) { return !p.collectObjects; });
    return rows;
}();

std::string
rowName(const ::testing::TestParamInfo<TraceParams> &info)
{
    return paramsName(info.param);
}

/**
 * One uninterrupted live run: the reference's outputs (the answer), the
 * profiler's, the trace recorded in the same guest and the profiler's
 * shadow evictions.
 */
struct LiveRun
{
    Outputs ref;
    Outputs out;
    std::string sgb3;
    std::uint64_t evictions = 0;
};

LiveRun
runLive(const TraceParams &p, int steps)
{
    vg::Guest g(kProgram);
    ReferenceProfiler ref(profilerConfig(p));
    core::SigilProfiler prof(profilerConfig(p));
    std::ostringstream os(std::ios::binary);
    vg::BinaryTraceRecorder rec(os, kBlockEvents);
    g.addTool(&ref);
    g.addTool(&prof);
    g.addTool(&rec);
    TraceDriver(p).drive(g, steps);
    LiveRun run;
    run.ref = serialize(ref);
    run.out = serialize(prof);
    run.sgb3 = os.str();
    run.evictions = prof.shadowStats().evictions;
    return run;
}

void
expectMatches(const Outputs &ref, const Outputs &got)
{
    EXPECT_EQ(ref.profile, got.profile);
    EXPECT_EQ(ref.events, got.events);
}

/**
 * Drive `cut` steps live into the profiler, then save the guest and the
 * profiler (guest first: its save syncs, catching the profiler up),
 * rebuild both from the snapshot and drive `tail` more steps. Expects
 * the restored profiler to re-save its body byte for byte.
 */
Outputs
runLiveWithCheckpoint(const TraceParams &p, int cut, int tail)
{
    TraceDriver driver(p);
    std::string snapshot;
    {
        vg::Guest g(kProgram);
        core::SigilProfiler prof(profilerConfig(p));
        g.addTool(&prof);
        driver.prologue(g);
        driver.driveSegment(g, cut);
        ByteSink sink;
        g.saveState(sink);
        prof.saveState(sink);
        snapshot = sink.take();
    }

    vg::Guest g(kProgram);
    core::SigilProfiler prof(profilerConfig(p));
    g.addTool(&prof);
    ByteSource src(snapshot.data(), snapshot.size());
    EXPECT_TRUE(g.restoreState(src));
    const std::size_t body_at = src.pos();
    EXPECT_TRUE(prof.restoreState(src));
    EXPECT_TRUE(src.ok());
    ByteSink again;
    prof.saveState(again);
    EXPECT_EQ(again.bytes(), snapshot.substr(body_at));

    driver.driveSegment(g, tail);
    driver.epilogue(g);
    return serialize(prof);
}

/** A temp path unique to the running test instance and `leg`. */
std::string
tempPath(const std::string &leg)
{
    const ::testing::TestInfo *t =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(t->test_suite_name()) + "." +
                       t->name() + "." + leg;
    std::replace(name.begin(), name.end(), '/', '_');
    return ::testing::TempDir() + "sigil_" + std::to_string(getpid()) +
           "_" + name;
}

/** Removes a file and its checkpoint siblings when the leg ends. */
class TempFile
{
  public:
    explicit TempFile(const std::string &leg) : path(tempPath(leg))
    {
        removeAll();
    }
    ~TempFile() { removeAll(); }
    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    void
    write(const std::string &bytes) const
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(os.good()) << path;
    }

    const std::string path;

  private:
    void
    removeAll() const
    {
        for (const char *suffix : {"", ".prev", ".tmp"})
            std::remove((path + suffix).c_str());
    }
};

/**
 * One config row: the reference answer, the live profiler's outputs
 * and the recorded trace, all from one drive in SetUp for each leg
 * group.
 */
class MatrixRow : public ::testing::TestWithParam<TraceParams>
{
  protected:
    void
    SetUp() override
    {
        live_ = runLive(GetParam(), kRowSteps);
        // Guard against the vacuous pass.
        ASSERT_GT(live_.ref.profile.size(), 100u);
    }

    /**
     * Checkpointed replays of the row through one entry point:
     * `replay(guest, profiler, config, stats)` must come out as the
     * reference fresh, resumed from the newest checkpoint, and resumed
     * from "<path>.prev" once the newest is damaged.
     */
    template <class Replay>
    void
    expectCheckpointedReplaysMatch(const std::string &leg, Replay replay)
    {
        QuietLogs quiet;
        const TempFile ckpt(leg + ".sgcp");
        auto run = [&](core::CheckpointStats &st) {
            vg::Guest g(kProgram);
            core::SigilProfiler prof(profilerConfig(GetParam()));
            g.addTool(&prof);
            core::CheckpointConfig cc;
            cc.path = ckpt.path;
            cc.intervalBlocks = 3;
            vg::ReplayReport r = replay(g, prof, cc, &st);
            EXPECT_TRUE(r.ok());
            EXPECT_TRUE(r.sawTrailer);
            EXPECT_EQ(r.eventsDelivered, r.totalEventsRecorded);
            return serialize(prof);
        };

        core::CheckpointStats fresh;
        expectMatches(live_.ref, run(fresh));
        EXPECT_FALSE(fresh.resumed);
        EXPECT_GE(fresh.checkpointsWritten, 2u);
        EXPECT_GT(fresh.lastCheckpointBytes, 0u);

        core::CheckpointStats resumed;
        expectMatches(live_.ref, run(resumed));
        EXPECT_TRUE(resumed.resumed);
        EXPECT_GT(resumed.resumeBlocks, 0u);

        // Damage the newest checkpoint: resume falls back to the
        // older "<path>.prev".
        std::string c;
        {
            std::ifstream in(ckpt.path, std::ios::binary);
            c.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
        }
        ASSERT_GT(c.size(), 16u);
        c.resize(c.size() / 2);
        ckpt.write(c);
        core::CheckpointStats fallback;
        expectMatches(live_.ref, run(fallback));
        EXPECT_TRUE(fallback.resumed);
        EXPECT_LT(fallback.resumeBlocks, resumed.resumeBlocks);
    }

    LiveRun live_;
};

// Live legs, every row. ------------------------------------------------

class ShadowSpanDifferential : public MatrixRow
{};

TEST_P(ShadowSpanDifferential, SpanPathMatchesPerUnitReference)
{
    const TraceParams &p = GetParam();
    {
        SCOPED_TRACE("live profiler");
        expectMatches(live_.ref, live_.out);
    }
    if (p.collectObjects) {
        EXPECT_NE(live_.ref.profile.find("object obj"), std::string::npos);
    }
    if (p.maxShadowChunks > 0) {
        EXPECT_GT(live_.evictions, 0u);
    }
    SCOPED_TRACE("live mid-stream checkpoint");
    expectMatches(live_.ref, runLiveWithCheckpoint(p, kRowSteps / 2,
                                              kRowSteps - kRowSteps / 2));
}

INSTANTIATE_TEST_SUITE_P(Traces, ShadowSpanDifferential,
                         ::testing::ValuesIn(kRows), rowName);

// Replay legs, rows without objects. -----------------------------------

class ParallelDecodeDifferential : public MatrixRow
{};

TEST_P(ParallelDecodeDifferential, ThreadsFormatsDispatchMatchReference)
{
    const std::string &trace = live_.sgb3;
    // Compression must engage on this workload: fewer stored payload
    // bytes than raw ones, and compressed frames visible in the scan,
    // or the legs would only exercise stored-raw frames.
    const std::vector<vg::FrameInfo> frames = vg::scanFrames(trace);
    std::uint64_t stored = 0, raw = 0, events = 0;
    bool any_compressed = false;
    for (const vg::FrameInfo &f : frames) {
        stored += f.payloadLen;
        raw += f.rawLen;
        events += f.eventCount;
        any_compressed |= f.compressed;
    }
    ASSERT_LT(stored, raw);
    ASSERT_TRUE(any_compressed);
    // The scan sees every frame: the end frame is the last of the file
    // and carries the total of the events frames counted.
    ASSERT_GE(frames.size(), 5u);
    EXPECT_EQ(frames.back().tag, kTagEnd);
    EXPECT_EQ(frames.back().firstEventSeq, events);

    std::string first_report;
    auto expect_replay_matches = [&](const std::string &leg, auto replay) {
        SCOPED_TRACE(leg);
        vg::Guest g(kProgram);
        core::SigilProfiler prof(profilerConfig(GetParam()));
        g.addTool(&prof);
        const vg::ReplayReport r = replay(g);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.sawTrailer);
        EXPECT_TRUE(r.cleanShutdown);
        EXPECT_FALSE(r.sawCorruption());
        EXPECT_EQ(r.totalEventsRecorded, events);
        EXPECT_EQ(r.eventsDelivered, r.totalEventsRecorded);
        expectMatches(live_.ref, serialize(prof));
        // Every counter of the report agrees across entry points:
        // toString() renders all of them.
        if (first_report.empty())
            first_report = r.toString();
        EXPECT_EQ(r.toString(), first_report);
    };
    const TempFile file("trace.SGB3");
    file.write(trace);
    vg::MappedTraceFile mapped(file.path);
    ASSERT_TRUE(mapped.ok()) << mapped.errorDetail();
    ASSERT_EQ(mapped.view(), trace);

    expect_replay_matches("in memory", [&](vg::Guest &g) {
        vg::BinaryReplaySession s(std::string_view(trace), g);
        while (s.step()) {
        }
        return s.finish();
    });
    expect_replay_matches("stream", [&](vg::Guest &g) {
        std::istringstream is(trace, std::ios::binary);
        return vg::replayBinaryTrace(is, g, vg::ReplayOptions{});
    });
    expect_replay_matches("file", [&](vg::Guest &g) {
        return vg::replayTraceFile(file.path, g, vg::ReplayOptions{});
    });
}

TEST_P(ParallelDecodeDifferential, FileCheckpointResumeOnCompressedTrace)
{
    const TempFile trace("trace.SGB3");
    trace.write(live_.sgb3);
    expectCheckpointedReplaysMatch(
        "file", [&](vg::Guest &g, core::SigilProfiler &prof,
                    const core::CheckpointConfig &cc,
                    core::CheckpointStats *st) {
            return core::replayFileWithCheckpoints(
                trace.path, g, prof, vg::ReplayOptions{}, cc, st);
        });
}

INSTANTIATE_TEST_SUITE_P(Configs, ParallelDecodeDifferential,
                         ::testing::ValuesIn(kTraceRows), rowName);

class CheckpointResume : public MatrixRow
{};

TEST_P(CheckpointResume, ResumedReplayIsBitIdentical)
{
    expectCheckpointedReplaysMatch(
        "stream", [&](vg::Guest &g, core::SigilProfiler &prof,
                      const core::CheckpointConfig &cc,
                      core::CheckpointStats *st) {
            std::istringstream is(live_.sgb3, std::ios::binary);
            return core::replayWithCheckpoints(
                is, g, prof, vg::ReplayOptions{}, cc, st);
        });
}

INSTANTIATE_TEST_SUITE_P(Configs, CheckpointResume,
                         ::testing::ValuesIn(kTraceRows), rowName);

// Seeded random configurations. ----------------------------------------

/** Derive a randomized configuration from a stream's seed. */
TraceParams
randomParams(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    TraceParams p{seed, 0, 0, false, false, false};
    p.granularityShift = rng.nextBounded(2) ? 6 : 0;
    const std::size_t limits[] = {0, 4, 8};
    p.maxShadowChunks = limits[rng.nextBounded(3)];
    p.collectReuse = rng.nextBounded(4) != 0;
    p.collectEvents = rng.nextBounded(2) != 0;
    p.roiOnly = rng.nextBounded(4) == 0;
    return p;
}

TEST(StampShadowProperty, CompressedMatchesReferenceOn200Streams)
{
    int nontrivial = 0, limited = 0, evicting = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const TraceParams p = randomParams(seed);
        const LiveRun got = runLive(p, 400);
        ASSERT_EQ(got.ref.profile, got.out.profile) << "seed " << seed;
        ASSERT_EQ(got.ref.events, got.out.events) << "seed " << seed;
        if (got.ref.profile.size() > 100)
            ++nontrivial;
        if (p.maxShadowChunks > 0) {
            ++limited;
            evicting += got.evictions > 0;
        }
    }
    // Guard against the vacuous pass, and against a chunk limit that
    // the short streams never reach.
    EXPECT_GT(nontrivial, 150);
    EXPECT_GT(evicting, limited / 2);
}

TEST(StampShadowProperty, V3CheckpointResumesBitIdentically)
{
    for (std::uint64_t seed = 301; seed <= 312; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const TraceParams p = randomParams(seed);
        expectMatches(runLive(p, 800).ref,
                      runLiveWithCheckpoint(p, 400, 400));
    }
}

} // namespace
} // namespace sigil
