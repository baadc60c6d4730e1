/**
 * @file
 * Property test: the re-use run accounting (counts, lifetimes, and the
 * Figure-8 breakdown) of the profiler and of the reference profiler
 * (the differential matrix's answer) against a brute-force model.
 *
 * Runs are per (unit, reader context, reader call): a run ends when a
 * different context or call reads the unit, when the unit is
 * overwritten, or at program end. Samples with >= 1 re-read contribute
 * their lifetime to the reader's statistics; every finalized run with
 * >= 1 read contributes to the program-wide re-use-count breakdown.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/sigil_profiler.hh"
#include "support/rng.hh"
#include "vg/guest.hh"

#include "reference_profiler.hh"

namespace sigil::core {
namespace {

struct OracleRun
{
    vg::ContextId reader = vg::kInvalidContext;
    vg::CallNum call = 0;
    std::uint32_t reads = 0;
    vg::Tick first = 0;
    vg::Tick last = 0;
};

struct OracleReuse
{
    std::uint64_t reusedUnits = 0;
    std::uint64_t reuseReads = 0;
    std::uint64_t lifetimeSum = 0;
};

class ReuseOracle : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ReuseOracle, RunAccountingMatchesBruteForce)
{
    Rng rng(GetParam());
    vg::Guest g("reuse-oracle");
    SigilConfig cfg;
    cfg.collectReuse = true;
    SigilProfiler prof(cfg);
    fixtures::ReferenceProfiler ref(cfg);
    g.addTool(&prof);
    g.addTool(&ref);

    std::map<std::uint64_t, OracleRun> runs;
    std::map<vg::ContextId, OracleReuse> agg;
    std::uint64_t breakdown[3] = {0, 0, 0}; // {0, 1-9, >9} re-reads

    auto finalize = [&](OracleRun &run) {
        if (run.reader == vg::kInvalidContext || run.reads == 0)
            return;
        std::uint32_t reuse = run.reads - 1;
        ++breakdown[reuse == 0 ? 0 : reuse <= 9 ? 1 : 2];
        if (reuse >= 1) {
            OracleReuse &o = agg[run.reader];
            ++o.reusedUnits;
            o.reuseReads += reuse;
            o.lifetimeSum += run.last - run.first;
        }
        run.reads = 0;
    };

    // A 512 B pool straddling a shadow chunk boundary, with 1-64 B
    // accesses, so equal-run groups split at chunk boundaries and in
    // the middle of an access.
    constexpr vg::Addr kPool = 512;
    constexpr vg::Addr kChunk = shadow::ShadowMemory::kChunkUnits;
    const vg::Addr heap = g.alloc(kPool + kChunk + 64);
    const vg::Addr base =
        (heap + kPool / 2 + kChunk - 1) / kChunk * kChunk - kPool / 2;
    const char *fns[] = {"main", "A", "B"};
    g.enter("main");
    int depth = 1;
    for (int step = 0; step < 25000; ++step) {
        std::uint64_t action = rng.nextBounded(12);
        if (action < 2 && depth < 5) {
            g.enter(fns[rng.nextBounded(3)]);
            ++depth;
        } else if (action < 3 && depth > 1) {
            g.leave();
            --depth;
        } else if (action < 5) {
            vg::Addr a = base + rng.nextBounded(kPool);
            unsigned size = 1 + static_cast<unsigned>(rng.nextBounded(64));
            g.write(a, size);
            for (vg::Addr b = a; b < a + size; ++b) {
                finalize(runs[b]);
                runs[b].reader = vg::kInvalidContext;
            }
        } else if (action < 11) {
            // Skewed toward a hot region (around the chunk boundary) so
            // runs actually build up.
            vg::Addr a = base + (rng.nextBounded(10) < 7
                                     ? kPool / 2 - 16 + rng.nextBounded(32)
                                     : rng.nextBounded(kPool));
            unsigned size = 1 + static_cast<unsigned>(rng.nextBounded(64));
            vg::ContextId ctx = g.currentContext();
            vg::CallNum call = g.currentCall();
            g.read(a, size);
            vg::Tick now = g.now();
            for (vg::Addr b = a; b < a + size; ++b) {
                OracleRun &run = runs[b];
                if (run.reads > 0 && run.reader == ctx &&
                    run.call == call) {
                    ++run.reads;
                    run.last = now;
                } else {
                    finalize(run);
                    run.reader = ctx;
                    run.call = call;
                    run.reads = 1;
                    run.first = now;
                    run.last = now;
                }
            }
        } else {
            g.iop(rng.nextBounded(4));
        }
    }
    while (depth-- > 0)
        g.leave();
    g.finish();
    for (auto &[addr, run] : runs) {
        (void)addr;
        finalize(run);
    }

    for (const auto &[tool, p] :
         {std::pair{"profiler", prof.takeProfile()},
          std::pair{"reference", ref.takeProfile()}}) {
        SCOPED_TRACE(tool);
        for (const SigilRow &row : p.rows) {
            OracleReuse expect =
                agg.count(row.ctx) ? agg[row.ctx] : OracleReuse{};
            EXPECT_EQ(row.agg.reusedUnits, expect.reusedUnits) << row.path;
            EXPECT_EQ(row.agg.reuseReads, expect.reuseReads) << row.path;
            EXPECT_EQ(row.agg.lifetimeSum, expect.lifetimeSum) << row.path;
            // The histogram's total mass matches the per-row run count.
            EXPECT_EQ(row.agg.lifetimeHist.totalCount(), expect.reusedUnits)
                << row.path;
        }
        for (int b = 0; b < 3; ++b) {
            EXPECT_EQ(
                p.unitReuseBreakdown.binCount(static_cast<std::size_t>(b)),
                breakdown[b])
                << "bin " << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseOracle,
                         ::testing::Values(5, 15, 25, 35));

} // namespace
} // namespace sigil::core
