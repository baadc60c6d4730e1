/**
 * @file
 * Property test: critical-path analysis, chain statistics and the list
 * scheduler against brute-force computations on randomly generated,
 * topologically ordered event traces — dense ones, ones with the seq
 * gaps, dangling references and cost ties of skipped segments, and
 * ones whose seqs lie far apart, up to 2^64 - 1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/profile_io.hh"
#include "critpath/chain_stats.hh"
#include "critpath/critical_path.hh"
#include "critpath/seq_index.hh"
#include "support/rng.hh"

namespace sigil::critpath {
namespace {

using core::ComputeEvent;
using core::EventRecord;
using core::EventTrace;
using core::XferEvent;

struct RandomDag
{
    EventTrace trace;
    /** seq → (self cost, predecessors). */
    std::map<std::uint64_t,
             std::pair<std::uint64_t, std::vector<std::uint64_t>>>
        nodes;
};

RandomDag
makeDag(Rng &rng, std::size_t n)
{
    RandomDag dag;
    std::vector<std::uint64_t> seqs;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t seq = i + 1;
        ComputeEvent c;
        c.seq = seq;
        c.ctx = static_cast<vg::ContextId>(rng.nextBounded(8));
        c.call = seq;
        c.iops = rng.nextBounded(100);
        c.flops = rng.nextBounded(50);

        std::vector<std::uint64_t> preds;
        if (!seqs.empty() && rng.nextBounded(10) < 8) {
            c.predSeq = seqs[rng.nextBounded(seqs.size())];
            preds.push_back(c.predSeq);
        }
        // Up to three extra data edges from earlier segments.
        std::uint64_t extra = seqs.empty() ? 0 : rng.nextBounded(4);
        for (std::uint64_t e = 0; e < extra; ++e) {
            std::uint64_t src = seqs[rng.nextBounded(seqs.size())];
            XferEvent x;
            x.srcSeq = src;
            x.dstSeq = seq;
            x.bytes = rng.nextBounded(4096);
            dag.trace.records.push_back(EventRecord::makeXfer(x));
            preds.push_back(src);
        }
        dag.trace.records.push_back(EventRecord::makeCompute(c));
        dag.nodes[seq] = {c.iops + c.flops, preds};
        seqs.push_back(seq);
    }
    return dag;
}

class CritPathOracle : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(CritPathOracle, MatchesBruteForceLongestPath)
{
    Rng rng(GetParam());
    RandomDag dag = makeDag(rng, 400);

    // Brute force DP in seq order (records are topologically ordered).
    std::map<std::uint64_t, std::uint64_t> incl;
    std::uint64_t best = 0, serial = 0;
    for (const auto &[seq, node] : dag.nodes) {
        std::uint64_t pred_best = 0;
        for (std::uint64_t p : node.second)
            pred_best = std::max(pred_best, incl[p]);
        incl[seq] = pred_best + node.first;
        best = std::max(best, incl[seq]);
        serial += node.first;
    }

    CriticalPathResult r = analyze(dag.trace);
    EXPECT_EQ(r.serialLength, serial);
    EXPECT_EQ(r.criticalPathLength, best);

    // The reported path must be a real chain whose costs sum to the
    // critical length and whose links are actual edges.
    std::uint64_t path_sum = 0;
    for (std::size_t i = 0; i < r.path.size(); ++i) {
        path_sum += r.path[i].selfCost;
        if (i + 1 < r.path.size()) {
            const auto &preds = dag.nodes.at(r.path[i].seq).second;
            bool linked = false;
            for (std::uint64_t p : preds)
                linked |= p == r.path[i + 1].seq;
            EXPECT_TRUE(linked)
                << r.path[i].seq << " -> " << r.path[i + 1].seq;
        }
    }
    EXPECT_EQ(path_sum, best);

    // Chain statistics agree with the analyzer.
    ChainStats stats = chainStats(dag.trace);
    EXPECT_EQ(stats.criticalPath, best);
    EXPECT_EQ(stats.totalWork, serial);
    EXPECT_EQ(stats.segments, 400u);

    // A schedule can never beat the critical path nor exceed serial.
    for (unsigned slots : {1u, 3u, 16u}) {
        std::uint64_t makespan = scheduleMakespan(dag.trace, slots);
        EXPECT_GE(makespan, best);
        EXPECT_LE(makespan, serial);
    }
}

/**
 * A trace shaped like the profiler's output after skipped segments:
 * seqs increase with gaps, and a predecessor or transfer source may
 * name a skipped seq, a seq never issued, or a later segment — none of
 * which is a dependency. Self costs come from a tiny range, so equal
 * inclusive costs (ties) are common.
 */
EventTrace
makeGappedTrace(Rng &rng, std::size_t n)
{
    EventTrace trace;
    std::vector<std::uint64_t> issued; // every seq handed out, gaps too
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < n; ++i) {
        seq += 1 + (rng.nextBounded(3) == 0 ? rng.nextBounded(4) : 0);
        for (std::uint64_t s = issued.empty() ? 1 : issued.back() + 1;
             s < seq; ++s) {
            issued.push_back(s); // a skipped segment
        }
        issued.push_back(seq);
        auto any_source = [&]() -> std::uint64_t {
            switch (rng.nextBounded(8)) {
              case 0:
                return seq + 1 + rng.nextBounded(5); // not yet seen
              case 1:
                return 0;
              default:
                return issued[rng.nextBounded(issued.size())];
            }
        };
        ComputeEvent c;
        c.seq = seq;
        c.ctx = static_cast<vg::ContextId>(rng.nextBounded(8));
        c.call = seq;
        c.iops = rng.nextBounded(3);
        c.flops = rng.nextBounded(2);
        c.predSeq = any_source();
        for (std::uint64_t e = rng.nextBounded(4); e > 0; --e) {
            XferEvent x;
            x.srcSeq = any_source();
            x.dstSeq = seq;
            x.bytes = rng.nextBounded(4096);
            trace.records.push_back(EventRecord::makeXfer(x));
        }
        trace.records.push_back(EventRecord::makeCompute(c));
    }
    return trace;
}

/** One segment of a trace, with the dependencies that count. */
struct OracleNode
{
    std::uint64_t seq = 0;
    std::uint64_t self = 0;
    /** Earlier segments it depends on, predecessor first. */
    std::vector<std::uint64_t> deps;
};

/** Dependencies by brute force: a map of the segments seen so far. */
std::vector<OracleNode>
oracleNodes(const EventTrace &trace)
{
    std::vector<OracleNode> nodes;
    std::map<std::uint64_t, std::size_t> seen;
    std::vector<XferEvent> pending;
    for (const EventRecord &rec : trace.records) {
        if (rec.kind == EventRecord::Kind::Xfer) {
            pending.push_back(rec.xfer);
            continue;
        }
        OracleNode n;
        n.seq = rec.compute.seq;
        n.self = rec.compute.iops + rec.compute.flops;
        if (seen.count(rec.compute.predSeq))
            n.deps.push_back(rec.compute.predSeq);
        for (const XferEvent &x : pending) {
            if (x.dstSeq == n.seq && seen.count(x.srcSeq))
                n.deps.push_back(x.srcSeq);
        }
        pending.clear();
        seen.emplace(n.seq, nodes.size());
        nodes.push_back(n);
    }
    return nodes;
}

/** Greedy list schedule by brute force (linear slot scan, map). */
std::uint64_t
oracleMakespan(const std::vector<OracleNode> &nodes, unsigned slots)
{
    std::map<std::uint64_t, std::uint64_t> finish;
    std::vector<std::uint64_t> free_at(slots, 0);
    std::uint64_t makespan = 0;
    for (const OracleNode &n : nodes) {
        std::uint64_t ready = 0;
        for (std::uint64_t d : n.deps)
            ready = std::max(ready, finish.at(d));
        std::size_t slot = 0;
        for (std::size_t s = 1; s < free_at.size(); ++s) {
            if (free_at[s] < free_at[slot])
                slot = s;
        }
        std::uint64_t end = std::max(free_at[slot], ready) + n.self;
        free_at[slot] = end;
        finish[n.seq] = end;
        makespan = std::max(makespan, end);
    }
    return makespan;
}

/**
 * A trace with seqs far apart, as an ROI trace or an events file read
 * from disk may carry: it starts at 2^40, mostly counts up by one but
 * sometimes jumps by up to 2^33 (or back below its start), and ends on
 * seq 2^64 - 1. References name seen seqs, 0, or arbitrary values.
 */
EventTrace
makeSparseTrace(Rng &rng, std::size_t n)
{
    EventTrace trace;
    std::vector<std::uint64_t> seen;
    std::uint64_t seq = std::uint64_t{1} << 40;
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.nextBounded(16)) {
          case 0:
            seq += 1 + rng.nextBounded(std::uint64_t{1} << 33);
            break;
          case 1:
            seq = 1 + rng.nextBounded(std::uint64_t{1} << 40);
            break;
          default:
            ++seq;
        }
        if (i + 1 == n)
            seq = ~std::uint64_t{0};
        auto any_source = [&]() -> std::uint64_t {
            switch (rng.nextBounded(8)) {
              case 0:
                return rng.next();
              case 1:
                return 0;
              default:
                return seen.empty() ? 0 : seen[rng.nextBounded(seen.size())];
            }
        };
        ComputeEvent c;
        c.seq = seq;
        c.call = i + 1;
        c.iops = rng.nextBounded(3);
        c.flops = rng.nextBounded(2);
        c.predSeq = any_source();
        for (std::uint64_t e = rng.nextBounded(4); e > 0; --e) {
            XferEvent x;
            x.srcSeq = any_source();
            x.dstSeq = seq;
            trace.records.push_back(EventRecord::makeXfer(x));
        }
        trace.records.push_back(EventRecord::makeCompute(c));
        seen.push_back(seq);
    }
    return trace;
}

/**
 * analyze(), chainStats() and scheduleMakespan() against brute force.
 * Segments repeating an earlier seq are not expected.
 */
void
expectMatchesOracle(const EventTrace &trace)
{
    std::vector<OracleNode> nodes = oracleNodes(trace);

    std::map<std::uint64_t, std::uint64_t> incl;
    std::map<std::uint64_t, bool> has_successor;
    std::uint64_t best = 0, serial = 0, edges = 0, roots = 0;
    std::uint64_t tip = 0;
    for (const OracleNode &n : nodes) {
        std::uint64_t pred_best = 0;
        for (std::uint64_t d : n.deps) {
            pred_best = std::max(pred_best, incl.at(d));
            has_successor[d] = true;
        }
        edges += n.deps.size();
        roots += n.deps.empty() ? 1 : 0;
        incl[n.seq] = pred_best + n.self;
        has_successor.try_emplace(n.seq, false);
        // The first segment (in trace order) reaching the maximum is
        // the tip; later ties do not displace it.
        if (tip == 0 || incl[n.seq] > best) {
            best = incl[n.seq];
            tip = n.seq;
        }
        serial += n.self;
    }
    std::uint64_t leaves = 0;
    for (const auto &[seq, succ] : has_successor)
        leaves += succ ? 0 : 1;

    CriticalPathResult r = analyze(trace);
    EXPECT_EQ(r.serialLength, serial);
    EXPECT_EQ(r.criticalPathLength, best);
    ASSERT_FALSE(r.path.empty());
    EXPECT_EQ(r.path.front().seq, tip);
    std::uint64_t path_sum = 0;
    for (std::size_t i = 0; i < r.path.size(); ++i) {
        path_sum += r.path[i].selfCost;
        const OracleNode *node = nullptr;
        for (const OracleNode &n : nodes) {
            if (n.seq == r.path[i].seq)
                node = &n;
        }
        ASSERT_NE(node, nullptr) << r.path[i].seq;
        if (i + 1 < r.path.size()) {
            EXPECT_NE(std::find(node->deps.begin(), node->deps.end(),
                                r.path[i + 1].seq),
                      node->deps.end())
                << r.path[i].seq << " -> " << r.path[i + 1].seq;
        }
    }
    EXPECT_EQ(path_sum, best);

    ChainStats stats = chainStats(trace);
    EXPECT_EQ(stats.criticalPath, best);
    EXPECT_EQ(stats.totalWork, serial);
    EXPECT_EQ(stats.segments, nodes.size());
    EXPECT_EQ(stats.edges, edges);
    EXPECT_EQ(stats.roots, roots);
    EXPECT_EQ(stats.leaves, leaves);

    for (unsigned slots : {1u, 2u, 3u, 16u})
        EXPECT_EQ(scheduleMakespan(trace, slots),
                  oracleMakespan(nodes, slots))
            << slots << " slots";
}

TEST_P(CritPathOracle, GappedTracesMatchBruteForce)
{
    Rng rng(GetParam());
    expectMatchesOracle(makeGappedTrace(rng, 600));
}

TEST_P(CritPathOracle, SparseSeqsMatchBruteForce)
{
    Rng rng(GetParam());
    expectMatchesOracle(makeSparseTrace(rng, 600));
}

TEST_P(CritPathOracle, SeqIndexMatchesMapWithBoundedWindow)
{
    Rng rng(GetParam());
    EventTrace trace = makeSparseTrace(rng, 3000);
    SeqIndex index;
    std::map<std::uint64_t, std::size_t> ref;
    std::size_t added = 0;
    for (const EventRecord &rec : trace.records) {
        const std::uint64_t seq = rec.kind == EventRecord::Kind::Compute
                                      ? rec.compute.seq
                                      : rec.xfer.srcSeq;
        // Look up before and after adding, as the analyses do.
        auto it = ref.find(seq);
        ASSERT_EQ(index.find(seq),
                  it == ref.end() ? SeqIndex::kAbsent : it->second);
        if (rec.kind != EventRecord::Kind::Compute)
            continue;
        const bool fresh = ref.try_emplace(seq, added).second;
        ASSERT_EQ(index.add(seq, added), fresh) << seq;
        // A duplicate keeps its first position.
        ASSERT_FALSE(index.add(seq, added + 1));
        ASSERT_EQ(index.find(seq), ref.at(seq));
        ++added;
        // Memory is per record added, never per seq spanned.
        ASSERT_LE(index.windowSlots(),
                  SeqIndex::kSlotsPerRecord * added + SeqIndex::kMinSlots);
    }
    for (const auto &[seq, pos] : ref)
        EXPECT_EQ(index.find(seq), pos) << seq;
}

TEST_P(CritPathOracle, ScheduleMatchesBruteForce)
{
    Rng rng(GetParam());
    RandomDag dag = makeDag(rng, 400);
    std::vector<OracleNode> nodes = oracleNodes(dag.trace);
    for (unsigned slots : {1u, 2u, 5u, 64u})
        EXPECT_EQ(scheduleMakespan(dag.trace, slots),
                  oracleMakespan(nodes, slots))
            << slots << " slots";
}

/**
 * An events file may carry any seq: ones at 2^40 and 2^64 - 1 are read
 * and analyzed as the small seqs 1 and 2 would be, in either order.
 */
TEST(CritPathEventsFile, HugeSeqsAnalyzeLikeSmallOnes)
{
    const std::string lo = "1099511627776";        // 2^40
    const std::string hi = "18446744073709551615"; // 2^64 - 1
    for (const auto &[a, b] : {std::pair{lo, hi}, std::pair{hi, lo}}) {
        SCOPED_TRACE(a + " then " + b);
        std::istringstream is("sigil-events\t1\n"
                              "C\t" + a + "\t0\t0\t1\t5\t0\t0\t0\n"
                              "X\t" + a + "\t" + b + "\t8\n"
                              "C\t" + b + "\t" + a +
                              "\t1\t2\t3\t0\t0\t0\n"
                              "end\n");
        vg::TraceError error;
        std::optional<EventTrace> trace = core::tryReadEvents(is, error);
        ASSERT_TRUE(trace.has_value()) << error.detail;

        CriticalPathResult r = analyze(*trace);
        EXPECT_EQ(r.serialLength, 8u);
        EXPECT_EQ(r.criticalPathLength, 8u);
        ASSERT_EQ(r.path.size(), 2u);
        EXPECT_EQ(std::to_string(r.path[0].seq), b);
        EXPECT_EQ(std::to_string(r.path[1].seq), a);

        ChainStats stats = chainStats(*trace);
        EXPECT_EQ(stats.segments, 2u);
        EXPECT_EQ(stats.edges, 2u); // serial edge and transfer
        EXPECT_EQ(stats.roots, 1u);
        EXPECT_EQ(stats.leaves, 1u);
        EXPECT_EQ(stats.criticalPath, 8u);

        EXPECT_EQ(scheduleMakespan(*trace, 1), 8u);
        EXPECT_EQ(scheduleMakespan(*trace, 4), 8u);
        EXPECT_EQ(scheduleSpeedups(*trace, {2}), std::vector<double>{1.0});
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CritPathOracle,
                         ::testing::Values(7, 17, 27, 37, 47));

} // namespace
} // namespace sigil::critpath
