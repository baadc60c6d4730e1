/**
 * @file
 * Whole-stack stress tests: random multi-threaded traces with barriers,
 * syscalls, line/byte granularities, the FIFO memory limiter, and
 * event collection all enabled at once. These don't check exact values
 * (the oracles elsewhere do) — they check that the invariants that
 * must hold under ANY input hold under adversarial interleavings, and
 * that nothing panics.
 */

#include <gtest/gtest.h>

#include "cg/cg_tool.hh"
#include "core/profile_diff.hh"
#include "core/sigil_profiler.hh"
#include "critpath/chain_stats.hh"
#include "critpath/critical_path.hh"
#include "support/rng.hh"
#include "vg/trace_io.hh"
#include "vg/guest.hh"

#include <sstream>

namespace sigil {
namespace {

/** Drive a random multi-threaded program through a guest. */
void
randomProgram(vg::Guest &g, Rng &rng, int steps)
{
    const char *fns[] = {"main", "A", "B", "C", "worker", "helper"};
    const vg::Addr base = g.alloc(1 << 14);

    // Three threads, each rooted in a function.
    std::vector<vg::ThreadId> threads = {0, g.spawnThread(),
                                         g.spawnThread()};
    std::vector<int> depth(threads.size(), 0);
    for (vg::ThreadId t : threads) {
        g.switchThread(t);
        g.enter(fns[t % 6]);
        depth[t] = 1;
    }
    g.switchThread(0);

    for (int i = 0; i < steps; ++i) {
        std::uint64_t action = rng.nextBounded(20);
        vg::ThreadId cur = g.currentThread();
        if (action < 3) {
            g.switchThread(static_cast<vg::ThreadId>(
                rng.nextBounded(threads.size())));
        } else if (action < 6 && depth[cur] < 6) {
            g.enter(fns[rng.nextBounded(6)]);
            ++depth[cur];
        } else if (action < 8 && depth[cur] > 1) {
            g.leave();
            --depth[cur];
        } else if (action == 8) {
            g.barrier();
        } else if (action == 9) {
            vg::Addr a = base + rng.nextBounded((1 << 14) - 256);
            if (rng.next() & 1)
                g.syscallIn("read", a, 128);
            else
                g.syscallOut("write", a, 128);
        } else if (action < 14) {
            g.write(base + rng.nextBounded((1 << 14) - 8),
                    1u << rng.nextBounded(4));
        } else if (action < 18) {
            g.read(base + rng.nextBounded((1 << 14) - 8),
                   1u << rng.nextBounded(4));
        } else {
            g.iop(rng.nextBounded(20));
            g.branch((rng.next() & 1) != 0);
        }
    }
    g.finish();
}

class StressEverything : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(StressEverything, InvariantsHoldUnderChaos)
{
    Rng rng(GetParam());
    vg::Guest g("stress");
    cg::CgTool cg_tool;
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    cfg.collectEvents = true;
    cfg.maxShadowChunks = (GetParam() & 1) ? 3 : 0; // half with limiter
    core::SigilProfiler prof(cfg);
    g.addTool(&cg_tool);
    g.addTool(&prof);

    randomProgram(g, rng, 8000);

    core::SigilProfile p = prof.takeProfile();
    cg::CgProfile cp = cg_tool.takeProfile();

    // Classified read mass equals observed read bytes.
    std::uint64_t classified = 0;
    for (const core::SigilRow &r : p.rows)
        classified += r.agg.totalReadBytes();
    EXPECT_EQ(classified, g.counters().readBytes);

    // Inter-thread bytes never exceed total classified bytes.
    std::uint64_t inter = 0;
    for (const core::SigilRow &r : p.rows) {
        inter += r.agg.uniqueInterThreadBytes +
                 r.agg.nonuniqueInterThreadBytes;
    }
    EXPECT_LE(inter, classified);

    // Thread matrix mass equals per-row inter-thread mass.
    std::uint64_t tmass = 0;
    for (const core::ThreadCommEdge &e : p.threadEdges)
        tmass += e.uniqueBytes + e.nonuniqueBytes;
    EXPECT_EQ(tmass, inter);

    // Both tools agree on the context tree and ops.
    ASSERT_EQ(p.rows.size(), cp.rows.size());
    std::uint64_t sigil_ops = 0, cg_ops = 0;
    for (std::size_t i = 0; i < p.rows.size(); ++i) {
        sigil_ops += p.rows[i].agg.iops + p.rows[i].agg.flops;
        cg_ops += cp.rows[i].self.iops + cp.rows[i].self.flops;
    }
    EXPECT_EQ(sigil_ops, cg_ops);

    // The event trace is analyzable and consistent.
    critpath::CriticalPathResult cpres = critpath::analyze(prof.events());
    EXPECT_EQ(cpres.serialLength, sigil_ops);
    EXPECT_LE(cpres.criticalPathLength, cpres.serialLength);
    critpath::ChainStats stats = critpath::chainStats(prof.events());
    EXPECT_EQ(stats.totalWork, cpres.serialLength);
    EXPECT_EQ(stats.criticalPath, cpres.criticalPathLength);
}

TEST_P(StressEverything, RecordReplayIsLossless)
{
    Rng rng(GetParam() * 17);
    std::stringstream trace(std::ios::in | std::ios::out |
                            std::ios::binary);
    core::SigilProfile original;
    {
        vg::Guest g("stress");
        vg::BinaryTraceRecorder recorder(trace);
        core::SigilProfiler prof;
        g.addTool(&recorder);
        g.addTool(&prof);
        randomProgram(g, rng, 4000);
        original = prof.takeProfile();
    }
    vg::Guest g2("stress");
    core::SigilProfiler prof2;
    g2.addTool(&prof2);
    vg::replayBinaryTrace(trace, g2);
    core::ProfileDiff d = core::diffProfiles(original,
                                             prof2.takeProfile());
    EXPECT_TRUE(d.identical()) << d.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressEverything,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

} // namespace
} // namespace sigil
