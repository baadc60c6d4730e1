/**
 * @file
 * Tests for region-of-interest (ROI) collection: the PARSEC
 * __parsec_roi_begin/end convention restricted to the profiler.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/sigil_profiler.hh"
#include "critpath/chain_stats.hh"
#include "critpath/critical_path.hh"
#include "critpath/seq_index.hh"
#include "vg/traced.hh"
#include "workloads/workload.hh"

namespace sigil::core {
namespace {

TEST(Roi, MarkersAreAdvisoryByDefault)
{
    vg::Guest g("t");
    SigilProfiler prof; // roiOnly = false
    g.addTool(&prof);
    g.enter("main");
    g.iop(10);
    g.roiBegin();
    g.iop(5);
    g.roiEnd();
    g.leave();
    g.finish();

    SigilProfile p = prof.takeProfile();
    EXPECT_EQ(p.findByDisplayName("main")->agg.iops, 15u);
}

TEST(Roi, RoiOnlyRestrictsAttribution)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.roiOnly = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    vg::Addr a = g.alloc(8);
    g.enter("main");
    g.enter("setup");
    g.write(a, 8); // pre-ROI producer
    g.iop(100);
    g.leave();
    g.roiBegin();
    g.enter("kernel");
    g.read(a, 8); // inside ROI, produced by setup
    g.iop(50);
    g.leave();
    g.roiEnd();
    g.enter("teardown");
    g.read(a, 8);
    g.iop(30);
    g.leave();
    g.leave();
    g.finish();

    SigilProfile p = prof.takeProfile();
    // setup's ops happened outside the ROI: invisible.
    EXPECT_EQ(p.findByDisplayName("setup")->agg.iops, 0u);
    EXPECT_EQ(p.findByDisplayName("teardown")->agg.iops, 0u);
    EXPECT_EQ(p.findByDisplayName("teardown")->agg.readBytes, 0u);
    // kernel is fully attributed, including the producer identity of
    // data written during setup (shadow state is maintained).
    const SigilRow *kernel = p.findByDisplayName("kernel");
    EXPECT_EQ(kernel->agg.iops, 50u);
    EXPECT_EQ(kernel->agg.uniqueInputBytes, 8u);
    ASSERT_EQ(p.edges.size(), 1u);
    EXPECT_EQ(p.row(p.edges[0].producer).displayName, "setup");
}

TEST(Roi, RoiOnlyEventsCoverOnlyTheRegion)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.roiOnly = true;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    g.enter("main");
    g.iop(100); // pre-ROI
    g.roiBegin();
    g.enter("kernel");
    g.iop(7);
    g.leave();
    g.roiEnd();
    g.iop(200); // post-ROI
    g.leave();
    g.finish();

    std::uint64_t trace_ops = 0;
    for (const EventRecord &r : prof.events().records) {
        if (r.kind == EventRecord::Kind::Compute)
            trace_ops += r.compute.iops + r.compute.flops;
    }
    EXPECT_EQ(trace_ops, 7u);
}

/**
 * A unit read once before the region and twice inside it: its re-use
 * run starts at the first read inside the region, so the lifetime is
 * the distance between the two region reads, not the distance from
 * tick 0.
 */
TEST(Roi, RoiLifetimeStartsAtTheFirstRegionRead)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.roiOnly = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    vg::Addr a = g.alloc(8);
    g.enter("main");
    g.write(a, 8);
    g.iop(2000);
    g.read(a, 8); // outside the region: no run
    g.iop(3);
    g.roiBegin();
    const vg::Tick first = g.now();
    g.read(a, 8);
    g.iop(6);
    const vg::Tick last = g.now();
    g.read(a, 8);
    g.roiEnd();
    g.leave();
    g.finish();

    SigilProfile p = prof.takeProfile();
    const SigilRow *main_row = p.findByDisplayName("main");
    ASSERT_NE(main_row, nullptr);
    ASSERT_GT(first, 2000u);
    EXPECT_EQ(main_row->agg.reusedUnits, 8u);
    EXPECT_EQ(main_row->agg.reuseReads, 8u);
    EXPECT_EQ(main_row->agg.lifetimeSum, 8 * (last - first));
}

/**
 * A re-use run built inside the region keeps its statistics when the
 * region ends before anything else touches the unit: a later read by
 * another function outside the region closes the run just as a later
 * write does.
 */
TEST(Roi, RegionRunSurvivesAnOutOfRegionAccess)
{
    auto reused_after = [](bool write_after) {
        vg::Guest g("t");
        SigilConfig cfg;
        cfg.roiOnly = true;
        SigilProfiler prof(cfg);
        g.addTool(&prof);
        vg::Addr a = g.alloc(8);
        g.enter("main");
        g.enter("setup");
        g.write(a, 8);
        g.leave();
        g.roiBegin();
        g.enter("kernel");
        g.read(a, 8);
        g.iop(4);
        g.read(a, 8);
        g.leave();
        g.roiEnd();
        g.enter("teardown");
        if (write_after)
            g.write(a, 8);
        else
            g.read(a, 8);
        g.leave();
        g.leave();
        g.finish();
        SigilProfile p = prof.takeProfile();
        const SigilRow *kernel = p.findByDisplayName("kernel");
        return kernel == nullptr ? ~std::uint64_t{0}
                                 : kernel->agg.reusedUnits;
    };
    EXPECT_EQ(reused_after(/*write_after=*/true), 8u);
    EXPECT_EQ(reused_after(/*write_after=*/false), 8u);
}

/**
 * A region of interest entered late: every segment before it uses up a
 * seq, so the trace's seqs start high. The chain analyses give the same
 * results as on the trace renumbered from 1, and their seq index spans
 * the region's segments, not every seq the profiler issued.
 */
TEST(Roi, LateRoiChainAnalysisIsIndependentOfSeqBase)
{
    vg::Guest g("t");
    SigilConfig cfg;
    cfg.roiOnly = true;
    cfg.collectEvents = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);

    vg::Addr a = g.alloc(64);
    g.enter("main");
    for (int i = 0; i < 50000; ++i) { // long pre-ROI phase
        g.enter("setup");
        g.iop(1);
        g.leave();
    }
    g.roiBegin();
    for (int i = 0; i < 40; ++i) {
        g.enter(i % 2 == 0 ? "produce" : "consume");
        if (i % 2 == 0)
            g.write(a + 8 * (i % 8), 8);
        else
            g.read(a + 8 * ((i - 1) % 8), 8);
        g.iop(1 + i % 3);
        g.leave();
    }
    g.roiEnd();
    g.leave();
    g.finish();

    const EventTrace &trace = prof.events();
    std::uint64_t lo = ~std::uint64_t{0}, computes = 0;
    for (const EventRecord &r : trace.records) {
        if (r.kind == EventRecord::Kind::Compute) {
            lo = std::min(lo, r.compute.seq);
            ++computes;
        }
    }
    ASSERT_GT(lo, 50000u);
    ASSERT_GE(computes, 40u);

    // Renumber from 1; references to segments before the region (none
    // of which is in the trace) become 0, which is no dependency either.
    auto rebase = [&](std::uint64_t seq) {
        return seq < lo ? 0 : seq - lo + 1;
    };
    EventTrace small = trace;
    for (EventRecord &r : small.records) {
        if (r.kind == EventRecord::Kind::Compute) {
            r.compute.seq = rebase(r.compute.seq);
            r.compute.predSeq = rebase(r.compute.predSeq);
        } else {
            r.xfer.srcSeq = rebase(r.xfer.srcSeq);
            r.xfer.dstSeq = rebase(r.xfer.dstSeq);
        }
    }

    critpath::CriticalPathResult big_r = critpath::analyze(trace);
    critpath::CriticalPathResult small_r = critpath::analyze(small);
    EXPECT_EQ(big_r.serialLength, small_r.serialLength);
    EXPECT_EQ(big_r.criticalPathLength, small_r.criticalPathLength);
    EXPECT_GT(big_r.criticalPathLength, 0u);
    ASSERT_EQ(big_r.path.size(), small_r.path.size());
    for (std::size_t i = 0; i < big_r.path.size(); ++i)
        EXPECT_EQ(rebase(big_r.path[i].seq), small_r.path[i].seq);

    critpath::ChainStats big_s = critpath::chainStats(trace);
    critpath::ChainStats small_s = critpath::chainStats(small);
    EXPECT_EQ(big_s.edges, small_s.edges);
    EXPECT_GT(big_s.edges, 0u);
    EXPECT_EQ(big_s.roots, small_s.roots);
    EXPECT_EQ(big_s.leaves, small_s.leaves);
    EXPECT_EQ(big_s.criticalPath, small_s.criticalPath);
    for (unsigned slots : {1u, 2u, 8u})
        EXPECT_EQ(critpath::scheduleMakespan(trace, slots),
                  critpath::scheduleMakespan(small, slots));

    // The analyses' seq index, filled as they fill it, stays the size
    // of the region's seq range.
    critpath::SeqIndex index;
    std::size_t pos = 0;
    for (const EventRecord &r : trace.records) {
        if (r.kind == EventRecord::Kind::Compute)
            index.add(r.compute.seq, pos++);
    }
    EXPECT_LE(index.windowSlots(), 4 * computes);
}

TEST(Roi, NestingAndUnderflowPanic)
{
    vg::Guest g("t");
    g.roiBegin();
    EXPECT_DEATH(g.roiBegin(), "");
    g.roiEnd();
    EXPECT_DEATH(g.roiEnd(), "");
}

TEST(Roi, BlackscholesRoiIsThePricingPhase)
{
    const workloads::Workload *w = workloads::findWorkload("blackscholes");

    vg::Guest g(w->name);
    SigilConfig cfg;
    cfg.roiOnly = true;
    SigilProfiler prof(cfg);
    g.addTool(&prof);
    w->run(g, workloads::Scale::SimSmall);
    g.finish();

    SigilProfile p = prof.takeProfile();
    // Parsing is outside the ROI, pricing inside.
    auto strtof_rows = p.findByFunction("strtof");
    ASSERT_FALSE(strtof_rows.empty());
    EXPECT_EQ(strtof_rows[0]->agg.calls, 0u);
    EXPECT_EQ(strtof_rows[0]->agg.iops, 0u);
    auto bs_rows = p.findByFunction("BlkSchlsEqEuroNoDiv");
    ASSERT_FALSE(bs_rows.empty());
    EXPECT_GT(bs_rows[0]->agg.calls, 0u);
    EXPECT_GT(bs_rows[0]->agg.flops, 0u);
    // The pricing kernel's option data was produced pre-ROI (by the
    // parser) — producer attribution survives.
    EXPECT_GT(bs_rows[0]->agg.uniqueInputBytes, 0u);
}

} // namespace
} // namespace sigil::core
