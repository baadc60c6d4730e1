/**
 * @file
 * Tests for the event-file representation: segment boundaries,
 * serial-predecessor links, data-transfer edges, and skipped-segment
 * forwarding (across a checkpoint, too).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/serial.hh"
#include "vg/guest.hh"

namespace sigil::core {
namespace {

/** Collect compute records by (display name of ctx) for inspection. */
std::vector<ComputeEvent>
computes(const EventTrace &t)
{
    std::vector<ComputeEvent> out;
    for (const EventRecord &r : t.records)
        if (r.kind == EventRecord::Kind::Compute)
            out.push_back(r.compute);
    return out;
}

std::vector<XferEvent>
xfers(const EventTrace &t)
{
    std::vector<XferEvent> out;
    for (const EventRecord &r : t.records)
        if (r.kind == EventRecord::Kind::Xfer)
            out.push_back(r.xfer);
    return out;
}

TEST(EventTrace, SegmentPerFunctionOccurrence)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    g.enter("main");
    g.iop(1); // main segment 1
    g.enter("A");
    g.iop(10); // A segment
    g.leave();
    g.iop(2); // main segment 2 (re-occurrence)
    g.leave();
    g.finish();

    auto cs = computes(prof.events());
    ASSERT_EQ(cs.size(), 3u);
    EXPECT_EQ(cs[0].iops, 1u);
    EXPECT_EQ(cs[1].iops, 10u);
    EXPECT_EQ(cs[2].iops, 2u);
    // A spawned from main's first segment.
    EXPECT_EQ(cs[1].predSeq, cs[0].seq);
    // main's re-occurrence chains to main's previous segment, NOT to A
    // (functions are non-blocking).
    EXPECT_EQ(cs[2].predSeq, cs[0].seq);
    // Same call, different segments.
    EXPECT_EQ(cs[0].call, cs[2].call);
    EXPECT_NE(cs[0].seq, cs[2].seq);
}

TEST(EventTrace, XferLinksProducingSegment)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("producer");
    g.write(a, 8);
    g.leave();
    g.enter("consumer");
    g.read(a, 8);
    g.iop(1);
    g.leave();
    g.leave();
    g.finish();

    auto cs = computes(prof.events());
    auto xs = xfers(prof.events());
    ASSERT_EQ(xs.size(), 1u);
    // Find the producer and consumer segments.
    std::uint64_t prod_seq = 0, cons_seq = 0;
    for (const ComputeEvent &c : cs) {
        if (c.writes == 1)
            prod_seq = c.seq;
        if (c.reads == 1)
            cons_seq = c.seq;
    }
    EXPECT_EQ(xs[0].srcSeq, prod_seq);
    EXPECT_EQ(xs[0].dstSeq, cons_seq);
    EXPECT_EQ(xs[0].bytes, 8u);
}

TEST(EventTrace, RereadsProduceNoXfer)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("producer");
    g.write(a, 8);
    g.leave();
    g.enter("consumer");
    g.read(a, 8);
    g.read(a, 8); // non-unique: no additional transfer mass
    g.leave();
    g.leave();
    g.finish();

    auto xs = xfers(prof.events());
    ASSERT_EQ(xs.size(), 1u);
    EXPECT_EQ(xs[0].bytes, 8u);
}

TEST(EventTrace, SameSegmentTrafficIsNotAnEdge)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.write(a, 8);
    g.read(a, 8); // produced and consumed in one segment
    g.leave();
    g.finish();

    EXPECT_TRUE(xfers(prof.events()).empty());
}

TEST(EventTrace, EmptySegmentsForwardedThrough)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    g.enter("main");
    g.iop(1); // main seg 1 (work)
    g.enter("wrapper");
    // wrapper's first segment is empty: it immediately calls down.
    g.enter("worker");
    g.iop(5);
    g.leave();
    // wrapper's re-occurrence is also empty.
    g.leave();
    g.iop(1);
    g.leave();
    g.finish();

    auto cs = computes(prof.events());
    ASSERT_EQ(cs.size(), 3u);
    // Worker's pred must resolve through the skipped wrapper segment to
    // main's first segment.
    EXPECT_EQ(cs[1].iops, 5u);
    EXPECT_EQ(cs[1].predSeq, cs[0].seq);
}

/**
 * One step of main → w1 → w2 → w3 → worker, where every wrapper
 * segment is empty (skipped) and only main and worker retire work.
 */
void
wrapperChainStep(vg::Guest &g, int step)
{
    switch (step) {
      case 0: g.enter("main"); break;
      case 1: g.iop(1); break;
      case 2: g.enter("w1"); break;
      case 3: g.enter("w2"); break;
      case 4: g.enter("w3"); break;
      case 5: g.enter("worker"); break;
      case 6: g.iop(5); break;
      case 7: g.leave(); break; // worker
      case 8: g.leave(); break; // w3 (its re-occurrence is empty too)
      case 9: g.leave(); break; // w2
      case 10: g.leave(); break; // w1
      case 11: g.iop(1); break;
      case 12: g.leave(); break; // main
    }
}

constexpr int kWrapperChainSteps = 13;

TEST(EventTrace, ChainOfSkippedSegmentsSurvivesCheckpoint)
{
    SigilConfig cfg;
    cfg.collectEvents = true;

    std::string straight;
    {
        vg::Guest g("t");
        SigilProfiler prof(cfg);
        g.addTool(&prof);
        for (int step = 0; step < kWrapperChainSteps; ++step)
            wrapperChainStep(g, step);
        g.finish();

        auto cs = computes(prof.events());
        ASSERT_EQ(cs.size(), 3u);
        EXPECT_EQ(cs[0].iops, 1u);
        EXPECT_EQ(cs[1].iops, 5u);
        // worker is spawned through three skipped wrapper segments:
        // its predecessor forwards all the way to main's first segment.
        EXPECT_EQ(cs[1].predSeq, cs[0].seq);
        EXPECT_GE(cs[1].seq, cs[0].seq + 4);
        EXPECT_EQ(cs[2].predSeq, cs[0].seq);
        std::ostringstream os;
        writeEvents(os, prof.events());
        straight = os.str();
    }

    // Save in the middle of the chain (w1 skipped, w2 open and empty)
    // and finish the run on a restored guest and profiler.
    ByteSink sink;
    {
        vg::Guest g("t");
        SigilProfiler prof(cfg);
        g.addTool(&prof);
        for (int step = 0; step < 4; ++step)
            wrapperChainStep(g, step);
        g.saveState(sink);
        prof.saveState(sink);
    }
    vg::Guest g("t");
    SigilProfiler prof(cfg);
    g.addTool(&prof);
    ByteSource src(sink.bytes().data(), sink.bytes().size());
    ASSERT_TRUE(g.restoreState(src));
    ASSERT_TRUE(prof.restoreState(src));
    for (int step = 4; step < kWrapperChainSteps; ++step)
        wrapperChainStep(g, step);
    g.finish();
    std::ostringstream os;
    writeEvents(os, prof.events());
    EXPECT_EQ(os.str(), straight);
}

TEST(EventTrace, DisabledCollectionStaysEmpty)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.collectEvents = false;
    SigilProfiler prof(cfg);
    g.addTool(&prof);
    g.enter("main");
    g.iop(100);
    g.leave();
    g.finish();
    EXPECT_TRUE(prof.events().empty());
}

TEST(EventTrace, XfersAggregatePerProducingSegment)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    g.enter("main");
    vg::Addr a = g.alloc(64);
    g.enter("producer");
    g.write(a, 64);
    g.leave();
    g.enter("consumer");
    for (int i = 0; i < 8; ++i)
        g.read(a + static_cast<vg::Addr>(i) * 8, 8);
    g.leave();
    g.leave();
    g.finish();

    auto xs = xfers(prof.events());
    ASSERT_EQ(xs.size(), 1u);
    EXPECT_EQ(xs[0].bytes, 64u);
}

} // namespace
} // namespace sigil::core
