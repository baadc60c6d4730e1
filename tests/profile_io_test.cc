/**
 * @file
 * Round-trip and robustness tests for the profile and event-file text
 * formats.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "vg/traced.hh"

namespace sigil::core {
namespace {

/** Produce a non-trivial profile with edges, re-use, and histograms. */
SigilProfile
makeProfile(EventTrace *events_out = nullptr)
{
    vg::Guest g("roundtrip");
    SigilConfig cfg;
    cfg.collectReuse = true;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    vg::GuestArray<double> in(g, 32, "in");
    in.fillAsInput([](std::size_t i) { return static_cast<double>(i); });

    g.enter("main");
    g.enter("operator new"); // name with a space
    g.iop(5);
    g.leave();
    g.enter("stage1");
    double acc = 0;
    for (std::size_t i = 0; i < 32; ++i) {
        acc += in.get(i);
        acc += in.get(i); // re-reads for re-use stats
        g.flop(2);
    }
    (void)acc;
    g.leave();
    g.leave();
    g.finish();

    if (events_out != nullptr)
        *events_out = prof.events();
    return prof.takeProfile();
}

TEST(ProfileIo, ProfileRoundTrips)
{
    SigilProfile p = makeProfile();
    std::stringstream ss;
    writeProfile(ss, p);
    SigilProfile q = readProfile(ss);

    EXPECT_EQ(q.program, p.program);
    EXPECT_EQ(q.granularityShift, p.granularityShift);
    EXPECT_EQ(q.shadowPeakBytes, p.shadowPeakBytes);
    ASSERT_EQ(q.rows.size(), p.rows.size());
    for (std::size_t i = 0; i < p.rows.size(); ++i) {
        const SigilRow &a = p.rows[i];
        const SigilRow &b = q.rows[i];
        EXPECT_EQ(b.fnName, a.fnName);
        EXPECT_EQ(b.displayName, a.displayName);
        EXPECT_EQ(b.path, a.path);
        EXPECT_EQ(b.parent, a.parent);
        EXPECT_EQ(b.agg.calls, a.agg.calls);
        EXPECT_EQ(b.agg.iops, a.agg.iops);
        EXPECT_EQ(b.agg.flops, a.agg.flops);
        EXPECT_EQ(b.agg.uniqueInputBytes, a.agg.uniqueInputBytes);
        EXPECT_EQ(b.agg.nonuniqueInputBytes, a.agg.nonuniqueInputBytes);
        EXPECT_EQ(b.agg.uniqueLocalBytes, a.agg.uniqueLocalBytes);
        EXPECT_EQ(b.agg.uniqueOutputBytes, a.agg.uniqueOutputBytes);
        EXPECT_EQ(b.agg.reusedUnits, a.agg.reusedUnits);
        EXPECT_EQ(b.agg.lifetimeSum, a.agg.lifetimeSum);
        EXPECT_EQ(b.agg.lifetimeHist.totalCount(),
                  a.agg.lifetimeHist.totalCount());
        EXPECT_DOUBLE_EQ(b.agg.lifetimeHist.mean(),
                         a.agg.lifetimeHist.mean());
    }
    ASSERT_EQ(q.edges.size(), p.edges.size());
    for (std::size_t i = 0; i < p.edges.size(); ++i) {
        EXPECT_EQ(q.edges[i].producer, p.edges[i].producer);
        EXPECT_EQ(q.edges[i].consumer, p.edges[i].consumer);
        EXPECT_EQ(q.edges[i].uniqueBytes, p.edges[i].uniqueBytes);
    }
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(q.unitReuseBreakdown.binCount(i),
                  p.unitReuseBreakdown.binCount(i));
    }
}

TEST(ProfileIo, EventsRoundTrip)
{
    EventTrace events;
    makeProfile(&events);
    ASSERT_FALSE(events.empty());
    std::stringstream ss;
    writeEvents(ss, events);
    EventTrace back = readEvents(ss);
    ASSERT_EQ(back.records.size(), events.records.size());
    for (std::size_t i = 0; i < events.records.size(); ++i) {
        const EventRecord &a = events.records[i];
        const EventRecord &b = back.records[i];
        ASSERT_EQ(b.kind, a.kind);
        if (a.kind == EventRecord::Kind::Compute) {
            EXPECT_EQ(b.compute.seq, a.compute.seq);
            EXPECT_EQ(b.compute.predSeq, a.compute.predSeq);
            EXPECT_EQ(b.compute.ctx, a.compute.ctx);
            EXPECT_EQ(b.compute.iops, a.compute.iops);
        } else {
            EXPECT_EQ(b.xfer.srcSeq, a.xfer.srcSeq);
            EXPECT_EQ(b.xfer.dstSeq, a.xfer.dstSeq);
            EXPECT_EQ(b.xfer.bytes, a.xfer.bytes);
        }
    }
}

TEST(ProfileIo, FileRoundTrip)
{
    SigilProfile p = makeProfile();
    std::string path = ::testing::TempDir() + "/sigil_profile.txt";
    writeProfileFile(path, p);
    SigilProfile q = readProfileFile(path);
    EXPECT_EQ(q.rows.size(), p.rows.size());
}

TEST(ProfileIo, FunctionNamesWithSpacesSurvive)
{
    SigilProfile p = makeProfile();
    std::stringstream ss;
    writeProfile(ss, p);
    SigilProfile q = readProfile(ss);
    EXPECT_NE(q.findByDisplayName("operator new"), nullptr);
}

TEST(ProfileIo, BadHeaderIsFatal)
{
    std::stringstream ss("not-a-profile\t1\nend\n");
    EXPECT_EXIT(readProfile(ss), ::testing::ExitedWithCode(1), "");
}

TEST(ProfileIo, TruncationIsFatal)
{
    SigilProfile p = makeProfile();
    std::stringstream ss;
    writeProfile(ss, p);
    std::string text = ss.str();
    text.resize(text.size() / 2);
    std::stringstream half(text);
    EXPECT_EXIT(readProfile(half), ::testing::ExitedWithCode(1), "");
}

TEST(ProfileIo, GarbageValuesAreFatal)
{
    std::stringstream ss(
        "sigil-profile\t1\nrow\tX\t-1\tf\tf\tf\t0\t0\t0\t0\t0\t0\t0\t0\t0"
        "\t0\t0\t0\t0\t0\nend\n");
    EXPECT_EXIT(readProfile(ss), ::testing::ExitedWithCode(1), "");
}

TEST(ProfileIo, OutOfRangeRowContextIsABadRecord)
{
    // A row's context indexes the row table; a negative, wrapped or
    // far-ahead one must be a structured error, not a wild write or a
    // huge allocation. So must a signed value in an unsigned field.
    const std::string tail =
        "\tf\tf\tf\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0"
        "\t0\nend\n";
    {
        // The same row at a valid context parses.
        std::stringstream ok(std::string("sigil-profile\t1\nrow\t0\t-1") +
                             tail);
        vg::TraceError e;
        ASSERT_TRUE(tryReadProfile(ok, e).has_value());
    }
    for (const char *ctx : {"-1", "4294967295", "-2", "2000000000"}) {
        SCOPED_TRACE(ctx);
        std::stringstream ss(std::string("sigil-profile\t1\nrow\t") +
                             ctx + "\t-1" + tail);
        vg::TraceError e;
        EXPECT_FALSE(tryReadProfile(ss, e).has_value());
        EXPECT_EQ(e.cause, vg::TraceErrorCause::BadRecord);
    }
    std::stringstream ss(
        "sigil-profile\t1\nrow\t0\t-1\tf\tf\tf\t-1\t0\t0\t0\t0\t0\t0"
        "\t0\t0\t0\t0\t0\t0\t0\t0\t0\nend\n");
    vg::TraceError e;
    EXPECT_FALSE(tryReadProfile(ss, e).has_value());
    EXPECT_EQ(e.cause, vg::TraceErrorCause::BadRecord);
}

TEST(ProfileIo, EventBadHeaderIsFatal)
{
    std::stringstream ss("wrong\t1\nend\n");
    EXPECT_EXIT(readEvents(ss), ::testing::ExitedWithCode(1), "");
}

TEST(ProfileIo, MissingFileIsFatal)
{
    EXPECT_EXIT(readProfileFile("/nonexistent/path/profile.txt"),
                ::testing::ExitedWithCode(1), "");
}

TEST(ProfileIo, ParsedProfileDrivesPostProcessing)
{
    // The paper's release model: profiles are shared and post-processed
    // without rerunning the tool. Check a parsed profile still answers
    // queries.
    SigilProfile p = makeProfile();
    std::stringstream ss;
    writeProfile(ss, p);
    SigilProfile q = readProfile(ss);
    EXPECT_GT(q.totalUniqueInputBytes(), 0u);
    EXPECT_EQ(q.totalUniqueInputBytes(), p.totalUniqueInputBytes());
    auto stage1 = q.findByFunction("stage1");
    ASSERT_EQ(stage1.size(), 1u);
    EXPECT_EQ(stage1[0]->agg.uniqueInputBytes, 256u);
    EXPECT_EQ(stage1[0]->agg.nonuniqueInputBytes, 256u);
}

} // namespace
} // namespace sigil::core
