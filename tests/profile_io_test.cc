/**
 * @file
 * Round-trip and robustness tests for the profile and event-file text
 * formats, and byte-identity of the buffered renderer against a
 * reference iostream renderer.
 */

#include <gtest/gtest.h>

#include <limits>
#include <ostream>
#include <sstream>

#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/rng.hh"
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

// ---------------------------------------------------------------------
// Reference iostream renderer: the per-field `<<` formatting the
// buffered writer must reproduce byte for byte.
// ---------------------------------------------------------------------

std::string
refSanitize(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (c == '\t' || c == '\n')
            c = ' ';
    }
    return out;
}

void
refBounds(std::ostream &os, const char *tag, const BoundsHistogram &h)
{
    os << "breakdown\t" << tag;
    for (std::size_t i = 0; i < h.numBins(); ++i)
        os << '\t' << h.binCount(i);
    os << '\n';
}

std::string
refProfile(const SigilProfile &profile)
{
    std::ostringstream os;
    os << "sigil-profile\t1\n";
    os << "program\t" << refSanitize(profile.program) << '\n';
    os << "granularity\t" << profile.granularityShift << '\n';
    os << "shadow\t" << profile.shadowPeakBytes << '\t'
       << profile.shadowEvictions << '\n';
    for (const SigilRow &r : profile.rows) {
        const CommAggregates &a = r.agg;
        os << "row\t" << r.ctx << '\t' << r.parent << '\t'
           << refSanitize(r.fnName) << '\t' << refSanitize(r.displayName)
           << '\t' << refSanitize(r.path) << '\t' << a.calls << '\t'
           << a.iops << '\t' << a.flops << '\t' << a.readBytes << '\t'
           << a.writeBytes << '\t' << a.uniqueLocalBytes << '\t'
           << a.nonuniqueLocalBytes << '\t' << a.uniqueInputBytes << '\t'
           << a.nonuniqueInputBytes << '\t' << a.uniqueOutputBytes << '\t'
           << a.nonuniqueOutputBytes << '\t' << a.reusedUnits << '\t'
           << a.reuseReads << '\t' << a.lifetimeSum << '\t'
           << a.uniqueInterThreadBytes << '\t'
           << a.nonuniqueInterThreadBytes << '\n';
        const LinearHistogram &h = a.lifetimeHist;
        if (h.totalCount() > 0) {
            os << "hist\t" << r.ctx << '\t' << h.binWidth() << '\t'
               << h.overflowCount() << '\t' << h.totalValue() << '\t'
               << h.maxValue() << '\t' << h.numBins();
            for (std::size_t i = 0; i < h.numBins(); ++i)
                os << '\t' << h.binCount(i);
            os << '\n';
        }
    }
    for (const CommEdge &e : profile.edges) {
        os << "edge\t" << e.producer << '\t' << e.consumer << '\t'
           << e.uniqueBytes << '\t' << e.nonuniqueBytes << '\n';
    }
    for (const ThreadCommEdge &e : profile.threadEdges) {
        os << "tedge\t" << e.producer << '\t' << e.consumer << '\t'
           << e.uniqueBytes << '\t' << e.nonuniqueBytes << '\n';
    }
    refBounds(os, "unit", profile.unitReuseBreakdown);
    refBounds(os, "line", profile.lineReuseBreakdown);
    os << "end\n";
    return os.str();
}

std::string
refEvents(const EventTrace &events)
{
    std::ostringstream os;
    os << "sigil-events\t1\n";
    for (const EventRecord &r : events.records) {
        if (r.kind == EventRecord::Kind::Compute) {
            const ComputeEvent &c = r.compute;
            os << "C\t" << c.seq << '\t' << c.predSeq << '\t' << c.ctx
               << '\t' << c.call << '\t' << c.iops << '\t' << c.flops
               << '\t' << c.reads << '\t' << c.writes << '\n';
        } else {
            const XferEvent &x = r.xfer;
            os << "X\t" << x.srcSeq << '\t' << x.dstSeq << '\t' << x.bytes
               << '\n';
        }
    }
    os << "end\n";
    return os.str();
}

/** A field value biased to the edges: 0, UINT64_MAX, small, any. */
std::uint64_t
edgyU64(Rng &rng)
{
    switch (rng.nextBounded(4)) {
      case 0:
        return 0;
      case 1:
        return std::numeric_limits<std::uint64_t>::max();
      case 2:
        return rng.nextBounded(1000);
      default:
        return rng.next();
    }
}

/** A context id: -2 (uninitialized producer), -1, or a real one. */
vg::ContextId
edgyCtx(Rng &rng)
{
    return static_cast<vg::ContextId>(rng.nextBounded(6)) - 2;
}

/** A name that may hold tabs and newlines (rendered as spaces). */
std::string
edgyName(Rng &rng)
{
    static const char kChars[] = "ab_:<> \t\n(1)";
    std::string name;
    for (std::uint64_t i = rng.nextBounded(12); i > 0; --i)
        name.push_back(kChars[rng.nextBounded(sizeof(kChars) - 1)]);
    return name;
}

SigilProfile
randomProfile(Rng &rng)
{
    SigilProfile p;
    p.program = edgyName(rng);
    p.granularityShift = static_cast<unsigned>(rng.nextBounded(13));
    p.shadowPeakBytes = edgyU64(rng);
    p.shadowEvictions = edgyU64(rng);
    for (std::uint64_t i = 0, n = rng.nextBounded(40); i < n; ++i) {
        SigilRow r;
        r.ctx = static_cast<vg::ContextId>(i);
        r.parent = edgyCtx(rng);
        r.fnName = edgyName(rng);
        r.displayName = edgyName(rng);
        r.path = edgyName(rng);
        CommAggregates &a = r.agg;
        for (std::uint64_t *f :
             {&a.calls, &a.iops, &a.flops, &a.readBytes, &a.writeBytes,
              &a.uniqueLocalBytes, &a.nonuniqueLocalBytes,
              &a.uniqueInputBytes, &a.nonuniqueInputBytes,
              &a.uniqueOutputBytes, &a.nonuniqueOutputBytes,
              &a.reusedUnits, &a.reuseReads, &a.lifetimeSum,
              &a.uniqueInterThreadBytes, &a.nonuniqueInterThreadBytes}) {
            *f = edgyU64(rng);
        }
        // Empty rows (no hist line), rows with bins, and rows whose
        // only mass is the overflow count (a hist line with 0 bins).
        switch (rng.nextBounded(3)) {
          case 0:
            break;
          case 1: {
            LinearHistogram h(1 + rng.nextBounded(100));
            std::vector<std::uint64_t> bins(1 + rng.nextBounded(8));
            for (std::uint64_t &b : bins)
                b = rng.nextBounded(3) == 0 ? 0 : 1 + rng.nextBounded(50);
            bins.back() = 1 + rng.nextBounded(1000);
            h.restore(std::move(bins), rng.nextBounded(5), edgyU64(rng),
                      edgyU64(rng));
            a.lifetimeHist = std::move(h);
            break;
          }
          default: {
            LinearHistogram h(edgyU64(rng) | 1);
            h.restore({}, 1 + rng.nextBounded(5), edgyU64(rng),
                      edgyU64(rng));
            a.lifetimeHist = std::move(h);
            break;
          }
        }
        p.rows.push_back(std::move(r));
    }
    for (std::uint64_t i = 0, n = rng.nextBounded(30); i < n; ++i) {
        p.edges.push_back(CommEdge{edgyCtx(rng), edgyCtx(rng),
                                   edgyU64(rng), edgyU64(rng)});
    }
    for (std::uint64_t i = 0, n = rng.nextBounded(5); i < n; ++i) {
        p.threadEdges.push_back(ThreadCommEdge{
            static_cast<vg::ThreadId>(rng.nextBounded(4)),
            std::numeric_limits<vg::ThreadId>::max(), edgyU64(rng),
            edgyU64(rng)});
    }
    for (std::uint64_t i = 0, n = rng.nextBounded(20); i < n; ++i) {
        p.unitReuseBreakdown.add(rng.nextBounded(20));
        p.lineReuseBreakdown.add(rng.nextBounded(20));
    }
    return p;
}

EventTrace
randomEvents(Rng &rng, std::size_t n)
{
    EventTrace t;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.nextBounded(3) == 0) {
            t.records.push_back(EventRecord::makeXfer(
                XferEvent{edgyU64(rng), edgyU64(rng), edgyU64(rng)}));
            continue;
        }
        ComputeEvent c;
        c.seq = edgyU64(rng);
        c.predSeq = edgyU64(rng);
        c.ctx = edgyCtx(rng);
        c.call = edgyU64(rng);
        c.iops = edgyU64(rng);
        c.flops = edgyU64(rng);
        c.reads = edgyU64(rng);
        c.writes = edgyU64(rng);
        t.records.push_back(EventRecord::makeCompute(c));
    }
    return t;
}

TEST(ProfileIo, BufferedProfileMatchesIostreamRendering)
{
    Rng rng(20131);
    for (int i = 0; i < 200; ++i) {
        SigilProfile p = randomProfile(rng);
        std::ostringstream os;
        writeProfile(os, p);
        ASSERT_EQ(os.str(), refProfile(p)) << "profile " << i;
    }
    // Names longer than the writer's 64 KiB buffer or ending near its
    // end, and a histogram line of thousands of bins, so records and
    // names straddle every flush point.
    for (int i = 0; i < 20; ++i) {
        SigilProfile p = randomProfile(rng);
        for (SigilRow &r : p.rows) {
            for (std::string *name : {&r.fnName, &r.displayName, &r.path}) {
                const std::size_t len = rng.nextBounded(4) == 0
                                            ? 60000 + rng.nextBounded(150000)
                                            : rng.nextBounded(3000);
                *name = std::string(len, 'n');
                for (int k = 0; k < 8 && len > 0; ++k)
                    (*name)[rng.nextBounded(len)] = k % 2 ? '\t' : '\n';
            }
        }
        if (!p.rows.empty()) {
            LinearHistogram h(3);
            std::vector<std::uint64_t> bins(5000);
            for (std::uint64_t &b : bins)
                b = edgyU64(rng);
            bins.back() = 1;
            h.restore(std::move(bins), 2, edgyU64(rng), edgyU64(rng));
            p.rows.back().agg.lifetimeHist = std::move(h);
        }
        std::ostringstream os;
        writeProfile(os, p);
        ASSERT_EQ(os.str(), refProfile(p)) << "long-name profile " << i;
    }
    // And a real one.
    SigilProfile real = makeProfile();
    std::ostringstream os;
    writeProfile(os, real);
    EXPECT_EQ(os.str(), refProfile(real));
}

TEST(ProfileIo, BufferedEventsMatchIostreamRendering)
{
    Rng rng(2013);
    // Empty, small, and several flushes' worth (> 64 KiB).
    for (std::size_t n : {std::size_t{0}, std::size_t{7},
                          std::size_t{20000}}) {
        EventTrace t = randomEvents(rng, n);
        std::ostringstream os;
        writeEvents(os, t);
        const std::string want = refEvents(t);
        if (n == 20000) {
            ASSERT_GT(want.size(), 3u * 64 * 1024);
        }
        ASSERT_EQ(os.str(), want) << n << " records";
    }
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
