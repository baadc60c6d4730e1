/**
 * @file
 * Communication-classification tables and kernels.
 *
 * The paper's per-byte classification (local vs. input/output, unique
 * vs. non-unique, re-use runs) as free functions over a CommTables.
 * There is one kernel set, and it works on runs: commReadRun classifies
 * a read of n consecutive units sharing one (writer, reader) stamp
 * pair, and commFinalizeRuns closes the pending re-use runs of n units
 * sharing one reader stamp. SigilProfiler's shadow walk splits each
 * chunk run that ShadowMemory::span() resolves into maximal stamp-pair
 * runs. The test-side reference profiler (tests/reference_profiler.hh)
 * calls the kernels with n = 1 per unit of its own std::map shadow.
 * The two share the classification and nothing of the shadow layout,
 * so the differential matrix compares how each reaches, groups and
 * evicts the shadow records. A fault in a kernel shows in both: the
 * brute-force oracles check the kernels through both tools.
 *
 * Edges are kept in first-seen order: the edge vectors are appended on
 * first occurrence and the key → index maps locate them afterwards,
 * so the profile lists edges in the order the access stream created
 * them.
 */

#ifndef SIGIL_CORE_COMM_TABLES_HH
#define SIGIL_CORE_COMM_TABLES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/comm_stats.hh"
#include "shadow/shadow_memory.hh"
#include "vg/types.hh"

namespace sigil::core {

/** Per-allocation traffic; slot 0 is the "other" bucket. */
struct ObjectTraffic
{
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    std::uint64_t uniqueReadBytes = 0;
};

/** Ambient state of one memory access, as the read kernel sees it. */
struct AccessStamp
{
    vg::ContextId ctx = vg::kInvalidContext;
    vg::CallNum call = 0;
    vg::Tick tick = 0;
    vg::ThreadId tid = 0;
    /** Open event-trace segment receiving the access (0 = none). */
    std::uint64_t segSeq = 0;
    /** ROI collection flag at the time of the access. */
    bool collecting = true;
};

/** Collection environment of the read kernel (from the config). */
struct ClassifyEnv
{
    bool collectReuse = true;
    bool collectEvents = false;
    unsigned granularityShift = 0;
};

/** The profiler's communication tables. */
struct CommTables
{
    std::vector<CommAggregates> rows;

    /** (producer<<32|consumer) → edge index, no self edges. */
    std::unordered_map<std::uint64_t, std::size_t> edgeIndex;
    std::vector<CommEdge> edges;

    /** (producerTid<<32|consumerTid) → thread-edge index. */
    std::unordered_map<std::uint64_t, std::size_t> threadEdgeIndex;
    std::vector<ThreadCommEdge> threadEdges;

    BoundsHistogram unitReuseBreakdown{std::vector<std::uint64_t>{0, 9}};
    BoundsHistogram lineReuseBreakdown{
        std::vector<std::uint64_t>{9, 99, 999, 9999}};

    std::vector<ObjectTraffic> objectStats;

    CommAggregates &
    row(vg::ContextId ctx)
    {
        std::size_t idx = static_cast<std::size_t>(ctx);
        if (idx >= rows.size())
            rows.resize(idx + 1);
        return rows[idx];
    }

    /** Grow-and-fetch the stats slot of allocation index (-1 = other). */
    ObjectTraffic &
    objectSlot(std::int32_t alloc_index)
    {
        std::size_t slot = static_cast<std::size_t>(alloc_index + 1);
        if (slot >= objectStats.size())
            objectStats.resize(slot + 1);
        return objectStats[slot];
    }

    static std::uint64_t
    edgeKey(vg::ContextId producer, vg::ContextId consumer)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(producer))
                << 32) |
               static_cast<std::uint32_t>(consumer);
    }

    static std::uint64_t
    threadEdgeKey(vg::ThreadId producer, vg::ThreadId consumer)
    {
        return (static_cast<std::uint64_t>(producer) << 32) | consumer;
    }
};

/**
 * Close the pending re-use runs of n consecutive units whose hot
 * records all carry the reader stamp `reader`, folding each run's
 * lifetime into that reader's statistics and its read count into the
 * program-wide breakdown. The reader stamp and its row are resolved
 * once; consecutive units with equal run state close with one counted
 * histogram add, which is exactly equal to one add per unit. A pending
 * run can only exist on a unit whose cold block is built, so a null
 * cold is a no-op, as is the null reader stamp.
 */
inline void
commFinalizeRuns(CommTables &t, const shadow::StampTable &st,
                 shadow::StampId reader, shadow::ShadowCold *c,
                 std::size_t n)
{
    if (reader == 0 || c == nullptr)
        return;
    const shadow::ReaderStamp &rd = st.reader(reader);
    if (rd.ctx == vg::kInvalidContext)
        return;
    // Resolved lazily: a reader whose runs were never re-read must not
    // grow the row table.
    CommAggregates *r = nullptr;
    for (std::size_t i = 0; i < n;) {
        const shadow::ShadowCold head = c[i];
        std::size_t j = i + 1;
        while (j < n && c[j].runReads == head.runReads &&
               c[j].runFirstRead == head.runFirstRead &&
               c[j].runLastRead == head.runLastRead) {
            ++j;
        }
        if (head.runReads != 0) {
            const std::uint64_t k = j - i;
            const std::uint64_t reuse = head.runReads - 1;
            t.unitReuseBreakdown.add(reuse, k);
            if (reuse >= 1) {
                if (r == nullptr)
                    r = &t.row(rd.ctx);
                r->reusedUnits += k;
                r->reuseReads += reuse * k;
                std::uint64_t lifetime =
                    head.runLastRead - head.runFirstRead;
                r->lifetimeSum += lifetime * k;
                r->lifetimeHist.add(lifetime, k);
            }
        }
        for (; i < j; ++i)
            c[i].runReads = 0;
    }
}

/**
 * Classify one read of w bytes against a run of n consecutive units
 * that all carry the same (writer, reader) stamp pair, and update their
 * shadow state. Every classification input is a function of that pair
 * and of the access, so the byte counters, edges and transfers are
 * updated once, weighted by the run's covered width w; only the re-use
 * state is walked per unit. reader_id is the access's consumer
 * identity (a.call, a.ctx), interned once per access. c may be null
 * when the access does not need the cold records (the caller builds
 * them exactly when re-use or line mode will touch them, and the units
 * of an unbuilt cold block hold no pending run).
 * seg_xfers (nullable) receives producer-segment → unique-byte
 * transfers; unique_bytes_this_access accumulates for per-object
 * attribution.
 */
inline void
commReadRun(CommTables &t, const ClassifyEnv &env,
            const shadow::StampTable &st, shadow::ShadowHot *s,
            shadow::ShadowCold *c, std::size_t n, std::uint64_t w,
            const AccessStamp &a, shadow::StampId reader_id,
            std::unordered_map<std::uint64_t, std::uint64_t> *seg_xfers,
            std::uint64_t &unique_bytes_this_access)
{
    const shadow::ShadowHot pair = s[0];
    // All n units share the writer stamp, so recording the new reader
    // is an 8-byte word fill.
    auto stamp_readers = [&] {
        std::fill(s, s + n, shadow::ShadowHot{pair.writer, reader_id});
    };

    if (!a.collecting) {
        // Outside the ROI: maintain shadow state only. The read ends
        // any pending run the way an overwrite does: a run built
        // inside the ROI keeps its statistics, and the next ROI read
        // of the unit starts a fresh run.
        commFinalizeRuns(t, st, pair.reader, c, n);
        stamp_readers();
        return;
    }

    const shadow::WriterStamp &wr = st.writer(pair.writer);
    const bool ever_written = wr.ctx != vg::kInvalidContext;
    vg::ContextId producer = ever_written ? wr.ctx : kUninitProducer;
    bool unique = st.reader(pair.reader).ctx != a.ctx;
    bool local = producer == a.ctx;

    if (unique)
        unique_bytes_this_access += w;
    if (local) {
        // row() may grow rows, so the reader row is re-fetched after
        // any call that can resize it rather than cached across them.
        CommAggregates &reader = t.row(a.ctx);
        if (unique)
            reader.uniqueLocalBytes += w;
        else
            reader.nonuniqueLocalBytes += w;
    } else {
        CommAggregates &reader = t.row(a.ctx);
        if (unique)
            reader.uniqueInputBytes += w;
        else
            reader.nonuniqueInputBytes += w;
        if (producer >= 0) {
            CommAggregates &prod = t.row(producer);
            if (unique)
                prod.uniqueOutputBytes += w;
            else
                prod.nonuniqueOutputBytes += w;
        }
        std::uint64_t key = CommTables::edgeKey(producer, a.ctx);
        auto [it, inserted] =
            t.edgeIndex.try_emplace(key, t.edges.size());
        if (inserted)
            t.edges.push_back(CommEdge{producer, a.ctx, 0, 0});
        CommEdge &edge = t.edges[it->second];
        if (unique)
            edge.uniqueBytes += w;
        else
            edge.nonuniqueBytes += w;
    }

    // Cross-thread communication: producer ran on another thread.
    // Orthogonal to the local/input axis — two threads executing the
    // same function still communicate through memory.
    if (ever_written && wr.thread != a.tid) {
        CommAggregates &reader = t.row(a.ctx);
        if (unique)
            reader.uniqueInterThreadBytes += w;
        else
            reader.nonuniqueInterThreadBytes += w;
        std::uint64_t tkey = CommTables::threadEdgeKey(wr.thread, a.tid);
        auto [tit, tin] =
            t.threadEdgeIndex.try_emplace(tkey, t.threadEdges.size());
        if (tin)
            t.threadEdges.push_back(ThreadCommEdge{wr.thread, a.tid, 0, 0});
        ThreadCommEdge &tedge = t.threadEdges[tit->second];
        if (unique)
            tedge.uniqueBytes += w;
        else
            tedge.nonuniqueBytes += w;
    }

    if (env.collectEvents && unique && ever_written && a.segSeq != 0 &&
        wr.seq != a.segSeq) {
        (*seg_xfers)[wr.seq] += w;
    }

    if (env.collectReuse) {
        // Stamp interning is injective, so id equality is exactly the
        // old (reader ctx, reader call) pair comparison. Re-use mode
        // always resolves with want_cold, so c is non-null here. A
        // unit with no pending run (its reader's last read fell
        // outside the ROI) starts one now, not at tick 0.
        if (pair.reader == reader_id) {
            for (std::size_t i = 0; i < n; ++i) {
                if (c[i].runReads++ == 0)
                    c[i].runFirstRead = a.tick;
                c[i].runLastRead = a.tick;
            }
        } else {
            commFinalizeRuns(t, st, pair.reader, c, n);
            for (std::size_t i = 0; i < n; ++i) {
                c[i].runReads = 1;
                c[i].runFirstRead = a.tick;
                c[i].runLastRead = a.tick;
            }
        }
    }

    // Per-unit access totals only feed the line-granularity re-use
    // breakdown, so byte-mode reads skip the cold record entirely
    // unless they are tracking a re-use run.
    if (env.granularityShift > 0) {
        for (std::size_t i = 0; i < n; ++i)
            ++c[i].totalAccesses;
    }
    stamp_readers();
}

} // namespace sigil::core

#endif // SIGIL_CORE_COMM_TABLES_HH
