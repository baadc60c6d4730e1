/**
 * @file
 * Tests for the post-processing extensions: context-collapsed function
 * profiles, Graphviz export, chain statistics, profile diffing, and
 * raw-trace record/replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "cdfg/dot_writer.hh"
#include "cg/cg_tool.hh"
#include "core/function_profile.hh"
#include "core/profile_diff.hh"
#include "core/sigil_profiler.hh"
#include "critpath/chain_stats.hh"
#include "critpath/critical_path.hh"
#include "vg/trace_io.hh"
#include "vg/traced.hh"
#include "workloads/workload.hh"

namespace sigil {
namespace {

/** Runs the toy two-context program under the full stack. */
struct ToyRun
{
    explicit ToyRun(bool events = false)
    {
        guest = std::make_unique<vg::Guest>("toy");
        core::SigilConfig cfg;
        cfg.collectEvents = events;
        profiler = std::make_unique<core::SigilProfiler>(cfg);
        cg_tool = std::make_unique<cg::CgTool>();
        guest->addTool(cg_tool.get());
        guest->addTool(profiler.get());
        vg::Guest &g = *guest;

        vg::Addr buf = g.alloc(64);
        g.enter("main");
        g.enter("A");
        g.write(buf, 64);
        g.iop(100);
        g.enter("D");
        g.read(buf, 32);
        g.iop(10);
        g.leave();
        g.leave();
        g.enter("C");
        g.read(buf, 64);
        g.flop(50);
        g.enter("D");
        g.read(buf, 16);
        g.iop(20);
        g.leave();
        g.leave();
        g.leave();
        g.finish();
    }

    std::unique_ptr<vg::Guest> guest;
    std::unique_ptr<core::SigilProfiler> profiler;
    std::unique_ptr<cg::CgTool> cg_tool;
};

TEST(FunctionProfile, CollapsesContexts)
{
    ToyRun run;
    core::SigilProfile p = run.profiler->takeProfile();
    core::FunctionProfile fp = core::collapseByFunction(p);

    const core::FunctionRow *d = fp.find("D");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->numContexts, 2u);
    EXPECT_EQ(d->agg.calls, 2u);
    EXPECT_EQ(d->agg.iops, 30u);
    EXPECT_EQ(d->agg.uniqueInputBytes, 48u);
    EXPECT_EQ(fp.find("nonexistent"), nullptr);
}

TEST(FunctionProfile, TopByMetricSortsDescending)
{
    ToyRun run;
    core::FunctionProfile fp =
        core::collapseByFunction(run.profiler->takeProfile());
    auto top = fp.topBy(2, [](const core::FunctionRow &r) {
        return r.agg.iops + r.agg.flops;
    });
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0]->fnName, "A"); // 100 ops
    EXPECT_EQ(top[1]->fnName, "C"); // 50 ops
}

TEST(FunctionProfile, MassIsPreserved)
{
    ToyRun run;
    core::SigilProfile p = run.profiler->takeProfile();
    core::FunctionProfile fp = core::collapseByFunction(p);
    std::uint64_t ctx_in = 0, fn_in = 0;
    for (const core::SigilRow &r : p.rows)
        ctx_in += r.agg.uniqueInputBytes;
    for (const core::FunctionRow &r : fp.rows)
        fn_in += r.agg.uniqueInputBytes;
    EXPECT_EQ(ctx_in, fn_in);
}

TEST(DotWriter, EmitsNodesAndBothEdgeStyles)
{
    ToyRun run;
    cdfg::Cdfg graph = cdfg::Cdfg::build(run.profiler->takeProfile(),
                                         run.cg_tool->takeProfile());
    std::string dot = cdfg::dotString(graph);
    EXPECT_NE(dot.find("digraph cdfg"), std::string::npos);
    EXPECT_NE(dot.find("style=solid"), std::string::npos);
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
    EXPECT_NE(dot.find("D(1)"), std::string::npos);
    EXPECT_NE(dot.find("D(2)"), std::string::npos);
    EXPECT_EQ(dot.back(), '\n');
}

TEST(DotWriter, MinEdgeBytesFiltersSmallEdges)
{
    ToyRun run;
    cdfg::Cdfg graph = cdfg::Cdfg::build(run.profiler->takeProfile(),
                                         run.cg_tool->takeProfile());
    cdfg::DotOptions options;
    options.minEdgeBytes = 1 << 20;
    std::string dot = cdfg::dotString(graph, options);
    EXPECT_EQ(dot.find("style=dashed"), std::string::npos);
}

TEST(DotWriter, TrimmedGraphMergesCandidates)
{
    ToyRun run;
    cdfg::Cdfg graph = cdfg::Cdfg::build(run.profiler->takeProfile(),
                                         run.cg_tool->takeProfile());
    cdfg::PartitionResult parts = cdfg::Partitioner().partition(graph);
    ASSERT_FALSE(parts.candidates.empty());
    std::ostringstream os;
    cdfg::writeTrimmedDot(os, graph, parts);
    std::string dot = os.str();
    EXPECT_NE(dot.find("digraph trimmed"), std::string::npos);
    EXPECT_NE(dot.find("S_be="), std::string::npos);
}

TEST(ChainStats, CountsRootsLeavesAndEdges)
{
    ToyRun run(true);
    critpath::ChainStats stats =
        critpath::chainStats(run.profiler->events());
    EXPECT_GT(stats.segments, 3u);
    EXPECT_GE(stats.roots, 1u);
    EXPECT_GE(stats.leaves, 1u);
    EXPECT_GT(stats.edges, 0u);
    EXPECT_EQ(stats.totalWork, 180u);
    critpath::CriticalPathResult cp =
        critpath::analyze(run.profiler->events());
    EXPECT_EQ(stats.criticalPath, cp.criticalPathLength);
    EXPECT_DOUBLE_EQ(stats.avgParallelism, cp.maxParallelism);
}

TEST(ChainStats, ScheduleSpeedupsAreMonotone)
{
    const workloads::Workload *w =
        workloads::findWorkload("streamcluster");
    vg::Guest g(w->name);
    core::SigilConfig cfg;
    cfg.collectEvents = true;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    w->run(g, workloads::Scale::SimSmall);
    g.finish();

    auto speedups = critpath::scheduleSpeedups(prof.events(),
                                               {1, 2, 4, 8, 16});
    ASSERT_EQ(speedups.size(), 5u);
    EXPECT_NEAR(speedups[0], 1.0, 1e-9);
    for (std::size_t i = 1; i < speedups.size(); ++i)
        EXPECT_GE(speedups[i] + 1e-9, speedups[i - 1]);
    critpath::CriticalPathResult cp = critpath::analyze(prof.events());
    EXPECT_LE(speedups.back(), cp.maxParallelism + 1e-9);
}

TEST(ProfileDiff, IdenticalRunsAreIdentical)
{
    ToyRun a, b;
    core::ProfileDiff d = core::diffProfiles(a.profiler->takeProfile(),
                                             b.profiler->takeProfile());
    EXPECT_TRUE(d.identical()) << d.describe();
}

TEST(ProfileDiff, PlatformKnobsDoNotChangeTheProfile)
{
    // The paper's platform-independence claim: the same program
    // profiled with different cache configurations (and with events on
    // or off) produces the same communication profile.
    ToyRun a(false);
    ToyRun b(true); // different tool mode
    core::ProfileDiff d = core::diffProfiles(a.profiler->takeProfile(),
                                             b.profiler->takeProfile());
    EXPECT_TRUE(d.identical()) << d.describe();
}

TEST(ProfileDiff, DetectsChangedAggregates)
{
    ToyRun a, b;
    core::SigilProfile pa = a.profiler->takeProfile();
    core::SigilProfile pb = b.profiler->takeProfile();
    pb.rows[1].agg.uniqueInputBytes += 7;
    core::ProfileDiff d = core::diffProfiles(pa, pb);
    ASSERT_FALSE(d.identical());
    EXPECT_EQ(d.mismatches[0].field, "uniqueInputBytes");
    EXPECT_FALSE(d.describe().empty());
}

TEST(ProfileDiff, DetectsStructuralDifferences)
{
    ToyRun a, b;
    core::SigilProfile pa = a.profiler->takeProfile();
    core::SigilProfile pb = b.profiler->takeProfile();
    pb.rows[2].path = "main/other";
    core::ProfileDiff d = core::diffProfiles(pa, pb);
    EXPECT_FALSE(d.identical());
}

TEST(TraceIo, ReplayReproducesIdenticalProfile)
{
    // Record a real workload's raw event stream, then replay it into a
    // fresh guest with a fresh profiler: the paper's "collect once"
    // model must reproduce the profile exactly.
    const workloads::Workload *w = workloads::findWorkload("swaptions");

    std::stringstream trace(std::ios::in | std::ios::out |
                            std::ios::binary);
    core::SigilProfile original;
    {
        vg::Guest g(w->name);
        vg::BinaryTraceRecorder recorder(trace);
        core::SigilProfiler prof;
        g.addTool(&recorder);
        g.addTool(&prof);
        w->run(g, workloads::Scale::SimSmall);
        g.finish();
        original = prof.takeProfile();
    }

    vg::Guest replayed("swaptions");
    core::SigilProfiler prof2;
    replayed.addTool(&prof2);
    std::uint64_t events = vg::replayBinaryTrace(trace, replayed);
    EXPECT_GT(events, 1000u);

    core::ProfileDiff d =
        core::diffProfiles(original, prof2.takeProfile());
    EXPECT_TRUE(d.identical()) << d.describe();
}

TEST(TraceIo, ThreadedTraceReplaysExactly)
{
    const workloads::Workload *w =
        workloads::findWorkload("dedup_parallel");
    std::stringstream trace(std::ios::in | std::ios::out |
                            std::ios::binary);
    core::SigilProfile original;
    {
        vg::Guest g(w->name);
        vg::BinaryTraceRecorder recorder(trace);
        core::SigilProfiler prof;
        g.addTool(&recorder);
        g.addTool(&prof);
        w->run(g, workloads::Scale::SimSmall);
        g.finish();
        original = prof.takeProfile();
    }
    ASSERT_FALSE(original.threadEdges.empty());

    vg::Guest replayed(w->name);
    core::SigilProfiler prof2;
    replayed.addTool(&prof2);
    vg::replayBinaryTrace(trace, replayed);
    EXPECT_EQ(replayed.numThreads(), 4u);

    core::SigilProfile back = prof2.takeProfile();
    core::ProfileDiff d = core::diffProfiles(original, back);
    EXPECT_TRUE(d.identical()) << d.describe();
    ASSERT_EQ(back.threadEdges.size(), original.threadEdges.size());
    for (std::size_t i = 0; i < back.threadEdges.size(); ++i) {
        EXPECT_EQ(back.threadEdges[i].uniqueBytes,
                  original.threadEdges[i].uniqueBytes);
    }
}

TEST(TraceIo, ReplayRejectsGarbage)
{
    // The file entry point reads only the framed binary formats; a
    // trace in the text format of early releases is rejected as bad
    // magic.
    std::string path = ::testing::TempDir() + "/garbage.trace";
    std::ofstream(path, std::ios::binary)
        << "sigil-trace\t1\nprogram\tx\nF\t0\tmain\nE\t0\nL\nend\n";
    vg::Guest g("x");
    EXPECT_EXIT(vg::replayTraceFile(path, g), ::testing::ExitedWithCode(1),
                "bad magic");
    std::remove(path.c_str());
}

TEST(TraceIo, ReplayRejectsTruncation)
{
    std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
    {
        vg::Guest g("t");
        vg::BinaryTraceRecorder recorder(full);
        g.addTool(&recorder);
        g.enter("main");
        g.iop(5);
        g.leave();
        g.finish();
    }
    std::string bytes = full.str();
    bytes.resize(bytes.size() - 5); // chop into the end frame
    std::stringstream cut(bytes, std::ios::in | std::ios::binary);
    vg::Guest g2("t");
    EXPECT_EXIT(vg::replayBinaryTrace(cut, g2),
                ::testing::ExitedWithCode(1), "");
}

TEST(TraceIo, RecorderCountsEvents)
{
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    vg::Guest g("t");
    vg::BinaryTraceRecorder recorder(ss);
    g.addTool(&recorder);
    g.enter("main");
    g.iop(1);
    vg::Addr a = g.alloc(8);
    g.write(a, 8);
    g.read(a, 8);
    g.branch(true);
    g.leave();
    g.finish();
    // enter + op + write + read + branch + leave = 6.
    EXPECT_EQ(recorder.eventsWritten(), 6u);
    EXPECT_EQ(ss.str().compare(0, 4, "SGB3"), 0);
    // The trailer's end frame carries the same total.
    std::vector<vg::FrameInfo> frames = vg::scanFrames(ss.str());
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.back().tag, 0x00);
    EXPECT_EQ(frames.back().firstEventSeq, 6u);
}

} // namespace
} // namespace sigil
