/**
 * @file
 * Hand-computed classification scenarios for the Sigil profiler: the
 * local/input/output and unique/non-unique axes, producer attribution,
 * overwrite invalidation, uninitialized reads, re-use accounting, and
 * accesses at the top of the address space.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/sigil_profiler.hh"
#include "vg/traced.hh"

#include "reference_profiler.hh"

namespace sigil::core {
namespace {

struct Fixture
{
    Fixture()
    {
        guest = std::make_unique<vg::Guest>("t");
        SigilConfig cfg;
        cfg.collectReuse = true;
        profiler = std::make_unique<SigilProfiler>(cfg);
        guest->addTool(profiler.get());
    }

    vg::ContextId
    ctxOf(const std::string &display)
    {
        SigilProfile p = profiler->takeProfile();
        const SigilRow *row = p.findByDisplayName(display);
        EXPECT_NE(row, nullptr) << display;
        return row != nullptr ? row->ctx : vg::kInvalidContext;
    }

    std::unique_ptr<vg::Guest> guest;
    std::unique_ptr<SigilProfiler> profiler;
};

TEST(Classification, ProducerToConsumerIsUniqueInput)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("producer");
    g.write(a, 8);
    g.leave();
    g.enter("consumer");
    g.read(a, 8);
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *prod = p.findByDisplayName("producer");
    const SigilRow *cons = p.findByDisplayName("consumer");
    ASSERT_NE(prod, nullptr);
    ASSERT_NE(cons, nullptr);
    EXPECT_EQ(cons->agg.uniqueInputBytes, 8u);
    EXPECT_EQ(cons->agg.nonuniqueInputBytes, 0u);
    EXPECT_EQ(cons->agg.uniqueLocalBytes, 0u);
    EXPECT_EQ(prod->agg.uniqueOutputBytes, 8u);
    EXPECT_EQ(prod->agg.writeBytes, 8u);

    ASSERT_EQ(p.edges.size(), 1u);
    EXPECT_EQ(p.edges[0].producer, prod->ctx);
    EXPECT_EQ(p.edges[0].consumer, cons->ctx);
    EXPECT_EQ(p.edges[0].uniqueBytes, 8u);
}

TEST(Classification, RereadBySameConsumerIsNonUnique)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("producer");
    g.write(a, 8);
    g.leave();
    g.enter("consumer");
    g.read(a, 8);
    g.read(a, 8);
    g.read(a, 8);
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *cons = p.findByDisplayName("consumer");
    EXPECT_EQ(cons->agg.uniqueInputBytes, 8u);
    EXPECT_EQ(cons->agg.nonuniqueInputBytes, 16u);
    const SigilRow *prod = p.findByDisplayName("producer");
    EXPECT_EQ(prod->agg.uniqueOutputBytes, 8u);
    EXPECT_EQ(prod->agg.nonuniqueOutputBytes, 16u);
}

TEST(Classification, SelfProducedIsLocal)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(4);
    g.enter("worker");
    g.write(a, 4);
    g.read(a, 4);
    g.read(a, 4);
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *w = p.findByDisplayName("worker");
    EXPECT_EQ(w->agg.uniqueLocalBytes, 4u);
    EXPECT_EQ(w->agg.nonuniqueLocalBytes, 4u);
    EXPECT_EQ(w->agg.uniqueInputBytes, 0u);
    EXPECT_TRUE(p.edges.empty()); // local traffic creates no edge
}

TEST(Classification, InterleavedConsumersAreEachUnique)
{
    // A third function reading between two reads of the first consumer
    // resets the last-reader, so the first consumer's next read counts
    // as unique again — the paper's stated "last reader" rule.
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("producer");
    g.write(a, 8);
    g.leave();
    g.enter("c1");
    g.read(a, 8);
    g.leave();
    g.enter("c2");
    g.read(a, 8);
    g.leave();
    g.enter("c1");
    g.read(a, 8);
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *c1 = p.findByDisplayName("c1");
    const SigilRow *c2 = p.findByDisplayName("c2");
    EXPECT_EQ(c1->agg.uniqueInputBytes, 16u);
    EXPECT_EQ(c1->agg.nonuniqueInputBytes, 0u);
    EXPECT_EQ(c2->agg.uniqueInputBytes, 8u);
}

TEST(Classification, OverwriteStartsNewUseChain)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("producer");
    g.write(a, 8);
    g.leave();
    g.enter("consumer");
    g.read(a, 8); // unique from producer
    g.leave();
    g.enter("producer");
    g.write(a, 8); // new value
    g.leave();
    g.enter("consumer");
    g.read(a, 8); // unique again: reader was invalidated by the write
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *cons = p.findByDisplayName("consumer");
    EXPECT_EQ(cons->agg.uniqueInputBytes, 16u);
    EXPECT_EQ(cons->agg.nonuniqueInputBytes, 0u);
}

TEST(Classification, UninitializedReadHasSyntheticProducer)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("reader");
    g.read(a, 8);
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *r = p.findByDisplayName("reader");
    EXPECT_EQ(r->agg.uniqueInputBytes, 8u);
    ASSERT_EQ(p.edges.size(), 1u);
    EXPECT_EQ(p.edges[0].producer, kUninitProducer);
}

TEST(Classification, InputDataAttributedToInputFunction)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    vg::GuestArray<int> arr(g, 4, "in");
    arr.fillAsInput([](std::size_t i) { return static_cast<int>(i); });
    g.enter("main");
    for (std::size_t i = 0; i < 4; ++i)
        arr.get(i);
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *in = p.findByDisplayName("*input*");
    const SigilRow *m = p.findByDisplayName("main");
    ASSERT_NE(in, nullptr);
    EXPECT_EQ(in->agg.writeBytes, 16u);
    EXPECT_EQ(in->agg.uniqueOutputBytes, 16u);
    EXPECT_EQ(m->agg.uniqueInputBytes, 16u);
}

TEST(Classification, ContextsOfSameFunctionAreDistinctConsumers)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("producer");
    g.write(a, 8);
    g.leave();
    g.enter("A");
    g.enter("D");
    g.read(a, 8);
    g.leave();
    g.leave();
    g.enter("C");
    g.enter("D");
    g.read(a, 8); // D in a different context: still unique
    g.leave();
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *d1 = p.findByDisplayName("D(1)");
    const SigilRow *d2 = p.findByDisplayName("D(2)");
    ASSERT_NE(d1, nullptr);
    ASSERT_NE(d2, nullptr);
    EXPECT_EQ(d1->agg.uniqueInputBytes, 8u);
    EXPECT_EQ(d2->agg.uniqueInputBytes, 8u);
    EXPECT_EQ(p.edges.size(), 2u);
}

TEST(Reuse, RunLifetimeMeasuredWithinCall)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(1);
    g.write(a, 1);
    g.enter("reader");
    g.read(a, 1); // t0
    g.iop(100);
    g.read(a, 1); // t0 + ~101
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *r = p.findByDisplayName("reader");
    EXPECT_EQ(r->agg.reusedUnits, 1u);
    EXPECT_EQ(r->agg.reuseReads, 1u);
    EXPECT_EQ(r->agg.lifetimeSum, 101u);
    EXPECT_EQ(r->agg.lifetimeHist.totalCount(), 1u);
    EXPECT_EQ(r->agg.lifetimeHist.binCount(0), 1u);
}

TEST(Reuse, NewCallStartsNewRun)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(1);
    g.write(a, 1);
    for (int call = 0; call < 3; ++call) {
        g.enter("reader");
        g.read(a, 1);
        g.read(a, 1);
        g.leave();
    }
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *r = p.findByDisplayName("reader");
    // Three distinct runs of 2 reads each.
    EXPECT_EQ(r->agg.reusedUnits, 3u);
    EXPECT_EQ(r->agg.reuseReads, 3u);
    // Unique classification is per last-reader function: only the very
    // first read is unique.
    EXPECT_EQ(r->agg.uniqueInputBytes, 1u);
    EXPECT_EQ(r->agg.nonuniqueInputBytes, 5u);
}

TEST(Reuse, BreakdownCountsRunsByReuse)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(3);
    g.write(a, 3);
    g.enter("reader");
    g.read(a, 1);     // byte 0: read once → zero re-use
    g.read(a + 1, 1); // byte 1: 3 reads → 2 re-uses
    g.read(a + 1, 1);
    g.read(a + 1, 1);
    for (int i = 0; i < 15; ++i)
        g.read(a + 2, 1); // byte 2: 14 re-uses → ">9" bin
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    EXPECT_EQ(p.unitReuseBreakdown.binCount(0), 1u);
    EXPECT_EQ(p.unitReuseBreakdown.binCount(1), 1u);
    EXPECT_EQ(p.unitReuseBreakdown.binCount(2), 1u);
}

TEST(Classification, ZeroByteWriteStampsNoProducer)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(8);
    g.enter("f");
    g.write(a, 8);
    g.leave();
    g.enter("g");
    g.write(a, 0); // covers no byte
    g.leave();
    g.enter("h");
    g.read(a, 8);
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *fr = p.findByDisplayName("f");
    const SigilRow *gr = p.findByDisplayName("g");
    const SigilRow *hr = p.findByDisplayName("h");
    ASSERT_NE(fr, nullptr);
    ASSERT_NE(gr, nullptr);
    ASSERT_NE(hr, nullptr);
    EXPECT_EQ(fr->agg.uniqueOutputBytes, 8u);
    EXPECT_EQ(gr->agg.uniqueOutputBytes, 0u);
    EXPECT_EQ(gr->agg.writeBytes, 0u);
    EXPECT_EQ(hr->agg.uniqueInputBytes, 8u);
    ASSERT_EQ(p.edges.size(), 1u);
    EXPECT_EQ(p.edges[0].producer, fr->ctx);
    EXPECT_EQ(p.edges[0].consumer, hr->ctx);
    EXPECT_EQ(p.edges[0].uniqueBytes, 8u);
}

TEST(Reuse, ZeroByteReadDoesNotSplitRun)
{
    Fixture f;
    vg::Guest &g = *f.guest;
    g.enter("main");
    vg::Addr a = g.alloc(4);
    g.write(a, 4);
    g.enter("reader");
    g.read(a, 4);
    g.enter("probe");
    g.read(a, 0); // covers no byte: neither a reader nor a re-use
    g.leave();
    g.read(a, 4);
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = f.profiler->takeProfile();
    const SigilRow *r = p.findByDisplayName("reader");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->agg.uniqueInputBytes, 4u);
    EXPECT_EQ(r->agg.nonuniqueInputBytes, 4u);
    // One run of two reads per byte.
    EXPECT_EQ(r->agg.reusedUnits, 4u);
    EXPECT_EQ(r->agg.reuseReads, 4u);
    EXPECT_EQ(p.unitReuseBreakdown.binCount(0), 0u);
    EXPECT_EQ(p.unitReuseBreakdown.binCount(1), 4u);
    const SigilRow *probe = p.findByDisplayName("probe");
    ASSERT_NE(probe, nullptr);
    EXPECT_EQ(probe->agg.readBytes, 0u);
    EXPECT_EQ(probe->agg.uniqueInputBytes, 0u);
}

TEST(LineMode, AccessesAggregatePerLine)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.granularityShift = 6;
    SigilProfiler prof(cfg);
    g.addTool(&prof);
    g.enter("main");
    vg::Addr a = g.alloc(256);
    g.write(a, 8);
    for (int i = 0; i < 25; ++i)
        g.read(a + (i % 8) * 8, 8); // 25 reads, all line 0
    g.read(a + 64, 8);              // 1 read of line 1
    g.leave();
    g.finish();

    SigilProfile p = prof.takeProfile();
    // Line 0: 25 reads → 24 "re-uses" (bin 99); line 1: 0 (bin 9).
    EXPECT_EQ(p.lineReuseBreakdown.binCount(0), 1u);
    EXPECT_EQ(p.lineReuseBreakdown.binCount(1), 1u);
    EXPECT_EQ(p.granularityShift, 6u);
}

TEST(LineMode, CrossLineAccessSplitsWeights)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.granularityShift = 6;
    SigilProfiler prof(cfg);
    g.addTool(&prof);
    g.enter("main");
    g.enter("producer");
    g.write(0x10000, 64);
    g.write(0x10040, 64);
    g.leave();
    g.enter("consumer");
    g.read(0x1003c, 8); // 4 bytes in line 0, 4 in line 1
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = prof.takeProfile();
    const SigilRow *c = p.findByDisplayName("consumer");
    EXPECT_EQ(c->agg.uniqueInputBytes, 8u);
    EXPECT_EQ(c->agg.readBytes, 8u);
}

TEST(MemoryLimit, EvictionPreservesAggregateMass)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.maxShadowChunks = 2;
    SigilProfiler prof(cfg);
    g.addTool(&prof);
    g.enter("main");
    // Touch enough space to force evictions.
    for (int c = 0; c < 8; ++c) {
        vg::Addr a = 0x10000 +
                     static_cast<vg::Addr>(c) *
                         shadow::ShadowMemory::kChunkUnits;
        g.write(a, 8);
        g.read(a, 8);
        g.read(a, 8);
    }
    g.leave();
    g.finish();

    SigilProfile p = prof.takeProfile();
    EXPECT_GT(p.shadowEvictions, 0u);
    const SigilRow *m = p.findByDisplayName("main");
    // All reads are classified (as local here) despite evictions.
    EXPECT_EQ(m->agg.uniqueLocalBytes + m->agg.nonuniqueLocalBytes +
                  m->agg.uniqueInputBytes + m->agg.nonuniqueInputBytes,
              8u * 16u);
}

/**
 * An access that ends exactly at byte 2^64 - 1 is valid. It must be
 * shadowed and classified like any other access — by the profiler and
 * by the reference profiler, in byte and in line mode — rather than
 * wrapping around to unit 0 (or never ending). The Bool axis selects
 * the tool checked: the profiler (false) or the reference (true).
 */
class TopOfAddressSpace
    : public ::testing::TestWithParam<std::tuple<bool, unsigned>>
{};

TEST_P(TopOfAddressSpace, ExactTopAccessClassifiesEdge)
{
    const bool check_reference = std::get<0>(GetParam());
    SigilConfig cfg;
    cfg.collectReuse = true;
    cfg.collectEvents = true;
    cfg.granularityShift = std::get<1>(GetParam());
    vg::Guest g("top");
    SigilProfiler prof(cfg);
    fixtures::ReferenceProfiler ref(cfg);
    g.addTool(&prof);
    g.addTool(&ref);

    const vg::Addr top16 = 0xFFFFFFFFFFFFFFF0ull;
    g.enter("main");
    g.enter("f");
    g.write(top16, 16);
    g.leave();
    g.enter("g");
    g.read(top16, 16);
    g.read(top16 + 8, 8); // the last 8 bytes again: a re-read
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = check_reference ? ref.takeProfile() : prof.takeProfile();
    const SigilRow *f = p.findByDisplayName("f");
    const SigilRow *c = p.findByDisplayName("g");
    ASSERT_NE(f, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(f->agg.writeBytes, 16u);
    EXPECT_EQ(c->agg.readBytes, 24u);
    EXPECT_EQ(c->agg.uniqueInputBytes, 16u);
    EXPECT_EQ(c->agg.nonuniqueInputBytes, 8u);
    ASSERT_EQ(p.edges.size(), 1u);
    EXPECT_EQ(p.edges[0].producer, f->ctx);
    EXPECT_EQ(p.edges[0].consumer, c->ctx);
    EXPECT_EQ(p.edges[0].uniqueBytes, 16u);
    EXPECT_EQ(p.edges[0].nonuniqueBytes, 8u);
    // Nothing landed at the bottom of the address space.
    if (!check_reference) {
        EXPECT_FALSE(prof.shadowMemory().find(0));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Walks, TopOfAddressSpace,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0u, 6u)));

TEST(TopOfAddressSpaceDeathTest, WrappingAccessPanics)
{
    vg::Guest g("wrap");
    g.enter("main");
    EXPECT_DEATH(g.read(0xFFFFFFFFFFFFFFF8ull, 16), "wraps past the top");
    EXPECT_DEATH(g.write(~0ull, 2), "wraps past the top");
    g.leave();
}

} // namespace
} // namespace sigil::core
