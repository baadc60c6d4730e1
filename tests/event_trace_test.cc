/**
 * @file
 * Tests for the event-file representation: segment boundaries,
 * serial-predecessor links, data-transfer edges, skipped-segment
 * forwarding (across a checkpoint, too), a segment's flat transfer
 * list against the reference profiler's std::map, and the block
 * storage of the records.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/serial.hh"
#include "vg/guest.hh"

#include "reference_profiler.hh"

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

/**
 * One consumer segment reads from kProducers producer segments in an
 * order that never repeats a producer back to back: the first 8 bytes
 * of every producer's 32, interleaving the lower and upper halves of
 * the producers, then the next 8 bytes the same way, kRounds times.
 * Every producer thus arrives kRounds times, far apart, and each
 * read's bytes are unique.
 */
constexpr int kProducers = 10000;
constexpr int kRounds = 4;

/** The producer the consumer's i-th read of a round comes from. */
int
alternatingProducer(int i)
{
    return i % 2 == 0 ? i / 2 : kProducers / 2 + i / 2;
}

void
alternatingProducers(vg::Guest &g)
{
    g.enter("main");
    const vg::Addr base = g.alloc(8 * kRounds * kProducers);
    for (int p = 0; p < kProducers; ++p) {
        g.enter("producer");
        g.write(base + 8 * kRounds * static_cast<vg::Addr>(p), 8 * kRounds);
        g.leave();
    }
    g.enter("consumer");
    for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kProducers; ++i) {
            const auto p = static_cast<vg::Addr>(alternatingProducer(i));
            g.read(base + 8 * (kRounds * p + static_cast<vg::Addr>(round)),
                   8);
        }
    }
    g.leave();
    g.leave();
    g.finish();
}

TEST(EventTrace, AlternatingProducersMatchReference)
{
    SigilConfig cfg;
    cfg.collectEvents = true;
    vg::Guest g("t");
    SigilProfiler prof(cfg);
    fixtures::ReferenceProfiler ref(cfg);
    g.addTool(&prof);
    g.addTool(&ref);
    alternatingProducers(g);

    // One X record per producer, in producer order, with all its bytes.
    // main's segments do no work, so the compute records are the
    // producers' and then the consumer's.
    const auto cs = computes(prof.events());
    const auto xs = xfers(prof.events());
    ASSERT_EQ(cs.size(), static_cast<std::size_t>(kProducers) + 1);
    ASSERT_EQ(xs.size(), static_cast<std::size_t>(kProducers));
    const std::uint64_t consumer = cs.back().seq;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(xs[i].srcSeq, cs[i].seq) << i;
        EXPECT_EQ(xs[i].dstSeq, consumer) << i;
        EXPECT_EQ(xs[i].bytes, 8u * kRounds) << i;
    }
    std::ostringstream got, want;
    writeEvents(got, prof.events());
    writeEvents(want, ref.events());
    EXPECT_EQ(got.str(), want.str());
}

TEST(XferList, StaysWithinTwiceItsSources)
{
    // The consumer's arrivals above, fed to the list directly: after
    // every add it holds at most twice the producers it has seen, and
    // it merges to one pair per producer with the bytes summed.
    XferList list;
    std::map<std::uint64_t, std::uint64_t> sums;
    std::size_t most = 0;
    for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kProducers; ++i) {
            const auto src =
                1 + static_cast<std::uint64_t>(alternatingProducer(i));
            list.add(src, 8);
            sums[src] += 8;
            ASSERT_LE(list.entries().size(), 2 * sums.size()) << i;
            most = std::max(most, list.entries().size());
        }
    }
    EXPECT_GT(most, static_cast<std::size_t>(kProducers));
    list.add(7, 0); // a barrier edge from a source already listed
    list.merge();
    EXPECT_EQ(std::vector<XferList::Entry>(list.entries().begin(),
                                           list.entries().end()),
              std::vector<XferList::Entry>(sums.begin(), sums.end()));
    list.clear();
    EXPECT_TRUE(list.empty());
}

/**
 * Two producers, then a consumer segment still open after reading both
 * (its transfer list holds {p1, 8} and {p2, 8}); the caller saves the
 * profiler there.
 */
void
openConsumer(vg::Guest &g, vg::Addr &base)
{
    g.enter("main");
    base = g.alloc(16);
    g.enter("p1");
    g.write(base, 8);
    g.leave();
    g.enter("p2");
    g.write(base + 8, 8);
    g.leave();
    g.enter("consumer");
    g.read(base + 8, 8);
    g.read(base, 8);
}

TEST(EventTrace, OpenSegmentSurvivesSaveRestoreSave)
{
    SigilConfig cfg;
    cfg.collectEvents = true;
    vg::Guest g("t");
    SigilProfiler prof(cfg);
    g.addTool(&prof);
    vg::Addr base = 0;
    openConsumer(g, base);
    ByteSink first;
    prof.saveState(first);

    SigilProfiler restored(cfg);
    ByteSource src(first.bytes().data(), first.bytes().size());
    ASSERT_TRUE(restored.restoreState(src));
    ByteSink second;
    restored.saveState(second);
    EXPECT_EQ(first.bytes(), second.bytes());
}

TEST(EventTrace, RestoreRefusesDuplicateTransferSource)
{
    SigilConfig cfg;
    cfg.collectEvents = true;
    vg::Guest g("t");
    SigilProfiler prof(cfg);
    g.addTool(&prof);
    vg::Addr base = 0;
    openConsumer(g, base);
    ByteSink sink;
    prof.saveState(sink);
    const std::string body = sink.take();

    // The producers' segments, from their compute records (main's
    // segments do no work and the consumer's is still open).
    const auto cs = computes(prof.events());
    ASSERT_EQ(cs.size(), 2u);
    const std::uint64_t p1 = cs[0].seq, p2 = cs[1].seq;
    auto pairs = [](std::uint64_t a, std::uint64_t b) {
        ByteSink v;
        v.varint(2);
        v.u64(a);
        v.u64(8);
        v.u64(b);
        v.u64(8);
        return v.take();
    };
    const std::string saved = pairs(p1, p2);
    const std::size_t at = body.find(saved);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(body.find(saved, at + 1), std::string::npos);
    auto restores = [&](const std::string &list) {
        std::string payload = body;
        payload.replace(at, saved.size(), list);
        SigilProfiler fresh(cfg);
        ByteSource src(payload.data(), payload.size());
        return fresh.restoreState(src) && src.ok();
    };

    EXPECT_TRUE(restores(saved));
    // One source listed twice, and the sources out of order.
    EXPECT_FALSE(restores(pairs(p1, p1)));
    EXPECT_FALSE(restores(pairs(p2, p1)));
}

TEST(EventRecords, AppendCopyMoveAcrossBlocks)
{
    EXPECT_EQ(sizeof(EventRecord), 72u);
    const std::size_t n = 2 * EventRecords::kBlockRecords + 5;
    EventRecords records;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 3 == 0) {
            records.push_back(EventRecord::makeXfer(XferEvent{i, i + 1, 7}));
        } else {
            ComputeEvent c;
            c.seq = i;
            records.push_back(EventRecord::makeCompute(c));
        }
    }
    ASSERT_EQ(records.size(), n);
    auto seq_of = [](const EventRecord &r) {
        return r.kind == EventRecord::Kind::Compute ? r.compute.seq
                                                    : r.xfer.srcSeq;
    };
    std::size_t i = 0;
    for (const EventRecord &r : records) {
        EXPECT_EQ(seq_of(r), i);
        EXPECT_EQ(r.kind == EventRecord::Kind::Xfer, i % 3 == 0);
        ++i;
    }
    EXPECT_EQ(i, n);

    EventRecords copy = records;
    records[n - 1].compute.seq = 99; // record n - 1 is a compute record
    EXPECT_EQ(seq_of(copy[n - 1]), n - 1);
    EventRecords moved = std::move(copy);
    EXPECT_TRUE(copy.empty()); // NOLINT(bugprone-use-after-move)
    ASSERT_EQ(moved.size(), n);
    EXPECT_EQ(seq_of(moved[n - 1]), n - 1);
    moved = records;
    EXPECT_EQ(seq_of(moved[n - 1]), 99u);
    moved.clear();
    EXPECT_TRUE(moved.empty());
    EXPECT_TRUE(moved.begin() == moved.end());
}

TEST(EventRecords, RepeatedTracesReuseBlocks)
{
    // A trace built after an equal one was dropped lands on the same
    // blocks, so a repeated analysis touches no new pages.
    const std::size_t n = 3 * EventRecords::kBlockRecords;
    std::vector<const EventRecord *> first;
    for (int pass = 0; pass < 2; ++pass) {
        EventRecords records;
        for (std::size_t i = 0; i < n; ++i)
            records.push_back(EventRecord::makeXfer(XferEvent{i, i, i}));
        std::vector<const EventRecord *> blocks;
        for (std::size_t i = 0; i < n; i += EventRecords::kBlockRecords)
            blocks.push_back(&records[i]);
        if (pass == 0)
            first = blocks;
        else
            EXPECT_EQ(blocks, first);
    }
}

} // namespace
} // namespace sigil::core
