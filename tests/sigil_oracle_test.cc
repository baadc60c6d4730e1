/**
 * @file
 * Property test: Sigil's byte classification against a brute-force
 * oracle.
 *
 * A random guest trace (random call nesting, 1-64 B reads and writes
 * over a small address pool straddling a shadow chunk boundary) is
 * replayed through the profiler and the reference profiler (the
 * differential matrix's answer) while a plain std::map per byte tracks
 * last writer and last reader. The oracle classifies every read
 * independently; both tools' aggregates must match it exactly.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/sigil_profiler.hh"
#include "support/rng.hh"
#include "vg/guest.hh"

#include "reference_profiler.hh"

namespace sigil::core {
namespace {

struct OracleState
{
    vg::ContextId writer = vg::kInvalidContext;
    vg::ContextId reader = vg::kInvalidContext;
};

struct OracleAgg
{
    std::uint64_t uniqueLocal = 0;
    std::uint64_t nonuniqueLocal = 0;
    std::uint64_t uniqueInput = 0;
    std::uint64_t nonuniqueInput = 0;
    std::uint64_t uniqueOutput = 0;
    std::uint64_t nonuniqueOutput = 0;
};

class SigilOracle : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SigilOracle, AggregatesMatchBruteForce)
{
    Rng rng(GetParam());
    vg::Guest g("oracle");
    SigilConfig cfg;
    cfg.collectReuse = (GetParam() & 1) != 0;
    cfg.collectEvents = (GetParam() & 2) != 0;
    SigilProfiler prof(cfg);
    fixtures::ReferenceProfiler ref(cfg);
    g.addTool(&prof);
    g.addTool(&ref);

    std::map<std::uint64_t, OracleState> shadow;
    std::map<vg::ContextId, OracleAgg> agg;

    // A 4 KiB pool straddling a shadow chunk boundary, with 1-64 B
    // accesses, so stamp-pair runs split both at chunk boundaries and
    // in the middle of an access.
    constexpr vg::Addr kPool = 4096;
    constexpr vg::Addr kChunk = shadow::ShadowMemory::kChunkUnits;
    const vg::Addr heap = g.alloc(kPool + kChunk + 64);
    const vg::Addr base =
        (heap + kPool / 2 + kChunk - 1) / kChunk * kChunk - kPool / 2;
    const char *fns[] = {"main", "A", "B", "C", "D", "E"};

    g.enter("main");
    int depth = 1;
    for (int step = 0; step < 30000; ++step) {
        std::uint64_t action = rng.nextBounded(10);
        if (action < 2 && depth < 8) {
            g.enter(fns[rng.nextBounded(6)]);
            ++depth;
        } else if (action < 3 && depth > 1) {
            g.leave();
            --depth;
        } else if (action < 6) {
            vg::Addr a = base + rng.nextBounded(kPool);
            unsigned size = 1 + static_cast<unsigned>(rng.nextBounded(64));
            vg::ContextId ctx = g.currentContext();
            g.write(a, size);
            for (unsigned i = 0; i < size; ++i) {
                OracleState &s = shadow[a + i];
                s.writer = ctx;
                s.reader = vg::kInvalidContext;
            }
        } else if (action < 9) {
            vg::Addr a = base + rng.nextBounded(kPool);
            unsigned size = 1 + static_cast<unsigned>(rng.nextBounded(64));
            vg::ContextId ctx = g.currentContext();
            g.read(a, size);
            for (unsigned i = 0; i < size; ++i) {
                OracleState &s = shadow[a + i];
                bool unique = s.reader != ctx;
                bool local = s.writer == ctx;
                OracleAgg &ra = agg[ctx];
                if (local) {
                    (unique ? ra.uniqueLocal : ra.nonuniqueLocal) += 1;
                } else {
                    (unique ? ra.uniqueInput : ra.nonuniqueInput) += 1;
                    if (s.writer != vg::kInvalidContext) {
                        OracleAgg &wa = agg[s.writer];
                        (unique ? wa.uniqueOutput : wa.nonuniqueOutput) +=
                            1;
                    }
                }
                s.reader = ctx;
            }
        } else {
            g.iop(rng.nextBounded(5));
        }
    }
    while (depth-- > 0)
        g.leave();
    g.finish();

    for (const auto &[tool, p] :
         {std::pair{"profiler", prof.takeProfile()},
          std::pair{"reference", ref.takeProfile()}}) {
        SCOPED_TRACE(tool);
        for (const SigilRow &row : p.rows) {
            OracleAgg expect =
                agg.count(row.ctx) ? agg[row.ctx] : OracleAgg{};
            EXPECT_EQ(row.agg.uniqueLocalBytes, expect.uniqueLocal)
                << row.path;
            EXPECT_EQ(row.agg.nonuniqueLocalBytes, expect.nonuniqueLocal)
                << row.path;
            EXPECT_EQ(row.agg.uniqueInputBytes, expect.uniqueInput)
                << row.path;
            EXPECT_EQ(row.agg.nonuniqueInputBytes, expect.nonuniqueInput)
                << row.path;
            EXPECT_EQ(row.agg.uniqueOutputBytes, expect.uniqueOutput)
                << row.path;
            EXPECT_EQ(row.agg.nonuniqueOutputBytes, expect.nonuniqueOutput)
                << row.path;
        }

        // Cross-invariants: edge mass equals non-local input mass.
        std::uint64_t edge_unique = 0, edge_nonunique = 0;
        for (const CommEdge &e : p.edges) {
            edge_unique += e.uniqueBytes;
            edge_nonunique += e.nonuniqueBytes;
        }
        std::uint64_t in_unique = 0, in_nonunique = 0;
        for (const SigilRow &row : p.rows) {
            in_unique += row.agg.uniqueInputBytes;
            in_nonunique += row.agg.nonuniqueInputBytes;
        }
        EXPECT_EQ(edge_unique, in_unique);
        EXPECT_EQ(edge_nonunique, in_nonunique);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SigilOracle,
                         ::testing::Values(101, 202, 303, 404, 505, 606,
                                           707, 808));

} // namespace
} // namespace sigil::core
