/**
 * @file
 * Property tests for the CDFG on randomly generated synthetic
 * profiles: boundary communication is checked against a brute-force
 * subtree-membership computation, and the partitioner's structural
 * invariants are verified on every random tree.
 */

#include <gtest/gtest.h>

#include "cdfg/cdfg.hh"
#include "cdfg/partitioner.hh"
#include "support/rng.hh"

namespace sigil::cdfg {
namespace {

/** Build a random context tree + edge matrix as a SigilProfile. */
core::SigilProfile
randomProfile(Rng &rng, std::size_t n_ctx, std::size_t n_edges)
{
    core::SigilProfile p;
    p.program = "synthetic";
    p.rows.resize(n_ctx);
    for (std::size_t i = 0; i < n_ctx; ++i) {
        core::SigilRow &r = p.rows[i];
        r.ctx = static_cast<vg::ContextId>(i);
        r.parent = i == 0 ? vg::kInvalidContext
                          : static_cast<vg::ContextId>(
                                rng.nextBounded(i));
        r.fn = static_cast<vg::FunctionId>(i);
        std::string name = "f";
        name += std::to_string(i);
        r.fnName = std::move(name);
        r.displayName = r.fnName;
        r.path = r.fnName;
        r.agg.iops = 1 + rng.nextBounded(10000);
        r.agg.readBytes = rng.nextBounded(1000);
        r.agg.writeBytes = rng.nextBounded(1000);
    }
    for (std::size_t e = 0; e < n_edges; ++e) {
        core::CommEdge edge;
        edge.producer = rng.nextBounded(8) == 0
                            ? core::kUninitProducer
                            : static_cast<vg::ContextId>(
                                  rng.nextBounded(n_ctx));
        edge.consumer =
            static_cast<vg::ContextId>(rng.nextBounded(n_ctx));
        if (edge.producer == edge.consumer)
            continue;
        edge.uniqueBytes = rng.nextBounded(5000);
        edge.nonuniqueBytes = rng.nextBounded(5000);
        p.edges.push_back(edge);
    }
    return p;
}

class CdfgProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CdfgProperty, BoundariesMatchBruteForce)
{
    Rng rng(GetParam());
    core::SigilProfile p = randomProfile(rng, 40, 80);
    Cdfg g = Cdfg::build(p);

    // Brute force: for every node r and every edge, test subtree
    // membership of both endpoints directly.
    for (const CdfgNode &r : g.nodes()) {
        std::uint64_t in = 0, out = 0;
        for (const CdfgEdge &e : g.edges()) {
            bool c_in = g.isAncestorOrSelf(r.ctx, e.consumer);
            bool p_in =
                e.producer >= 0 && g.isAncestorOrSelf(r.ctx, e.producer);
            if (c_in && !p_in)
                in += e.uniqueBytes;
            if (p_in && !c_in)
                out += e.uniqueBytes;
        }
        EXPECT_EQ(r.boundaryInBytes, in) << "ctx " << r.ctx;
        EXPECT_EQ(r.boundaryOutBytes, out) << "ctx " << r.ctx;
    }
}

TEST_P(CdfgProperty, TotalWeightReweightsBoundaries)
{
    Rng rng(GetParam() * 31);
    core::SigilProfile p = randomProfile(rng, 30, 60);
    Cdfg g = Cdfg::build(p);
    std::vector<std::uint64_t> unique_in;
    for (const CdfgNode &n : g.nodes())
        unique_in.push_back(n.boundaryInBytes);
    g.reweightBoundaries(BoundaryWeight::Total);
    for (std::size_t i = 0; i < g.nodes().size(); ++i)
        EXPECT_GE(g.nodes()[i].boundaryInBytes, unique_in[i]);
    g.reweightBoundaries(BoundaryWeight::UniqueOnly);
    for (std::size_t i = 0; i < g.nodes().size(); ++i)
        EXPECT_EQ(g.nodes()[i].boundaryInBytes, unique_in[i]);
}

TEST_P(CdfgProperty, InclusiveCostsAreConsistent)
{
    Rng rng(GetParam() * 77);
    core::SigilProfile p = randomProfile(rng, 50, 40);
    Cdfg g = Cdfg::build(p);
    // Every node's inclusive ops equal self + Σ children's inclusive.
    for (const CdfgNode &n : g.nodes()) {
        std::uint64_t sum = n.selfOps;
        for (vg::ContextId c : n.children)
            sum += g.node(c).inclOps;
        EXPECT_EQ(n.inclOps, sum) << "ctx " << n.ctx;
        EXPECT_GE(n.inclOps, n.selfOps);
    }
    // Roots sum to the total.
    std::uint64_t root_sum = 0;
    for (vg::ContextId r : g.roots())
        root_sum += g.node(r).inclOps;
    EXPECT_EQ(root_sum, g.totalOps());
}

TEST_P(CdfgProperty, PartitionerInvariants)
{
    Rng rng(GetParam() * 131);
    core::SigilProfile p = randomProfile(rng, 60, 100);
    Cdfg g = Cdfg::build(p);
    PartitionResult parts = Partitioner().partition(g);

    // Candidates are disjoint subtrees: no candidate is an ancestor of
    // another.
    for (const Candidate &a : parts.candidates) {
        for (const Candidate &b : parts.candidates) {
            if (a.ctx == b.ctx)
                continue;
            EXPECT_FALSE(g.isAncestorOrSelf(a.ctx, b.ctx))
                << a.displayName << " contains " << b.displayName;
        }
    }
    // Coverage is the sum of disjoint subtree shares: bounded by 1.
    EXPECT_LE(parts.coverage, 1.0 + 1e-9);
    EXPECT_GE(parts.coverage, 0.0);
    // The root is never a candidate.
    for (const Candidate &c : parts.candidates)
        EXPECT_NE(c.ctx, g.roots().front());
    // Candidates carry finite breakeven and are sorted ascending.
    for (std::size_t i = 0; i < parts.candidates.size(); ++i) {
        EXPECT_TRUE(std::isfinite(
            parts.candidates[i].breakevenSpeedup));
        EXPECT_GE(parts.candidates[i].breakevenSpeedup, 1.0);
        if (i > 0) {
            EXPECT_GE(parts.candidates[i].breakevenSpeedup,
                      parts.candidates[i - 1].breakevenSpeedup);
        }
    }
}

TEST_P(CdfgProperty, CutsAreLocalMinimaOfBreakeven)
{
    // The heuristic's contract: a candidate's breakeven is no worse
    // than the best breakeven anywhere inside its subtree.
    Rng rng(GetParam() * 997);
    core::SigilProfile p = randomProfile(rng, 50, 90);
    Cdfg g = Cdfg::build(p);
    PartitionResult parts = Partitioner().partition(g);
    BreakevenParams params;
    for (const Candidate &c : parts.candidates) {
        for (const CdfgNode &n : g.nodes()) {
            if (n.ctx == c.ctx || !g.isAncestorOrSelf(c.ctx, n.ctx))
                continue;
            BreakevenResult be = breakeven(n, params);
            if (be.viable()) {
                EXPECT_LE(c.breakevenSpeedup, be.speedup + 1e-9)
                    << c.displayName << " vs inner " << n.displayName;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfgProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

} // namespace
} // namespace sigil::cdfg
