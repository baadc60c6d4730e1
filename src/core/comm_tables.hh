/**
 * @file
 * Communication-classification tables and kernels.
 *
 * The paper's per-byte classification (local vs. input/output, unique
 * vs. non-unique, re-use runs) as free functions over a CommTables.
 * commClassifyRead classifies the bytes of a read by one (writer,
 * reader) stamp pair; it is the one kernel the profiler and the
 * test-side reference profiler (tests/reference_profiler.hh) share.
 *
 * The re-use kernels work against the shadow's RunTable: commReadRun
 * classifies a read of the units of one chunk run that
 * ShadowMemory::span() resolves, once per maximal run of units sharing
 * one stamp pair, and moves each group of them that names one re-use
 * run to its next run; commFinalizeRuns closes a group's share of a
 * pending run. The reference keeps a per-unit re-use record of its
 * own in a std::map shadow, so the differential matrix compares the
 * run table against a re-use rule that shares no layout with it. A
 * fault in commClassifyRead shows in both: the brute-force oracles
 * check it through both tools.
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
#include "core/event_trace.hh"
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
 * Fold k units' share of a closed re-use run into its reader's
 * statistics and its read count into the program-wide breakdown, with
 * one counted add each (exactly equal to k adds). A run that is
 * already closed (no reads), or whose reader stamp has no context,
 * folds nothing.
 */
inline void
commFoldRun(CommTables &t, const shadow::StampTable &st,
            const shadow::ReuseRun &run, std::uint64_t k)
{
    if (run.reads == 0)
        return;
    const shadow::ReaderStamp &rd = st.reader(run.reader);
    if (rd.ctx == vg::kInvalidContext)
        return;
    const std::uint64_t reuse = run.reads - 1;
    t.unitReuseBreakdown.add(reuse, k);
    if (reuse >= 1) {
        // Only a re-read run grows the row table.
        CommAggregates &r = t.row(rd.ctx);
        r.reusedUnits += k;
        r.reuseReads += reuse * k;
        const std::uint64_t lifetime = run.lastRead - run.firstRead;
        r.lifetimeSum += lifetime * k;
        r.lifetimeHist.add(lifetime, k);
    }
}

/**
 * Close the pending re-use run of n units whose hot records all carry
 * reader field v: fold their share of it and take them out of it. A
 * plain reader stamp (no pending run) is a no-op.
 */
inline void
commFinalizeRuns(CommTables &t, const shadow::StampTable &st,
                 shadow::RunTable &runs, shadow::StampId v, std::size_t n)
{
    if (!shadow::RunTable::isRun(v))
        return;
    commFoldRun(t, st, runs.at(v), n);
    runs.release(v, n);
}

/**
 * Classify w bytes of a read by the access a from units whose producer
 * stamp is `writer` and whose last consumer stamp is `reader`: the
 * byte counters, edges, thread edges and segment transfers. Every
 * input is a function of that pair and of the access, so a run of
 * units sharing the pair is classified once, weighted by its covered
 * width w. seg_xfers (nullable) receives producer-segment →
 * unique-byte transfers, appended in arrival order;
 * unique_bytes_this_access accumulates for per-object attribution.
 */
inline void
commClassifyRead(CommTables &t, const ClassifyEnv &env,
                 const shadow::StampTable &st, shadow::StampId writer,
                 shadow::StampId reader, std::uint64_t w,
                 const AccessStamp &a, XferList *seg_xfers,
                 std::uint64_t &unique_bytes_this_access)
{
    const shadow::WriterStamp &wr = st.writer(writer);
    const bool ever_written = wr.ctx != vg::kInvalidContext;
    vg::ContextId producer = ever_written ? wr.ctx : kUninitProducer;
    bool unique = st.reader(reader).ctx != a.ctx;
    bool local = producer == a.ctx;

    if (unique)
        unique_bytes_this_access += w;
    if (local) {
        // row() may grow rows, so the reader row is re-fetched after
        // any call that can resize it rather than cached across them.
        CommAggregates &row = t.row(a.ctx);
        if (unique)
            row.uniqueLocalBytes += w;
        else
            row.nonuniqueLocalBytes += w;
    } else {
        CommAggregates &row = t.row(a.ctx);
        if (unique)
            row.uniqueInputBytes += w;
        else
            row.nonuniqueInputBytes += w;
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
        CommAggregates &row = t.row(a.ctx);
        if (unique)
            row.uniqueInterThreadBytes += w;
        else
            row.nonuniqueInterThreadBytes += w;
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
        seg_xfers->add(wr.seq, w);
    }
}

/**
 * Classify one read against n consecutive units of one chunk and move
 * each group of them that names one re-use run to its next run. The
 * units are split into maximal runs sharing one (writer, reader) stamp
 * pair, each classified once, in unit order so edges keep their
 * first-seen order; units naming different runs of one reader share
 * the pair. covered(i, j) is the width in bytes of the read over units
 * i..j (inclusive). reader_id is the access's consumer stamp (a.call,
 * a.ctx), interned once per access. totals (nullable) are the units'
 * line-mode access totals.
 *
 * Outside the ROI the read only ends the units' pending runs, the way
 * an overwrite does: a run built inside the ROI keeps its statistics,
 * and the next ROI read starts a fresh run. Inside it, a read by a
 * run's own reader extends the run; any other read closes it and
 * starts one of its own (so does a read of a unit with no pending
 * run, which starts at this read, not at tick 0).
 */
template <typename Covered>
void
commReadRun(CommTables &t, const ClassifyEnv &env,
            const shadow::StampTable &st, shadow::RunTable &runs,
            shadow::ShadowHot *s, std::uint64_t *totals, std::size_t n,
            Covered &&covered, const AccessStamp &a,
            shadow::StampId reader_id, XferList *seg_xfers,
            std::uint64_t &unique_bytes_this_access)
{
    if (a.collecting && totals != nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            ++totals[i];
    }
    for (std::size_t i = 0; i < n;) {
        const shadow::StampId writer = s[i].writer;
        const shadow::StampId reader = runs.readerOf(s[i].reader);
        std::size_t j = i;
        if (!env.collectReuse) {
            // No runs exist: the units just record the new reader.
            while (j < n && s[j].writer == writer && s[j].reader == reader)
                s[j++].reader = reader_id;
        } else {
            // Every group of the stamp-pair run names a run of the same
            // reader, so whether the read extends it is known once.
            const bool extends = a.collecting && reader == reader_id;
            do {
                const shadow::StampId v = s[j].reader;
                std::size_t k = j + 1;
                while (k < n && s[k].writer == writer && s[k].reader == v)
                    ++k;
                shadow::StampId next = reader_id;
                if (extends && shadow::RunTable::isRun(v)) {
                    next = runs.extend(v, a.tick, k - j);
                } else {
                    commFinalizeRuns(t, st, runs, v, k - j);
                    if (a.collecting)
                        next = runs.start(reader_id, a.tick, k - j);
                }
                // The group shares the writer stamp, so recording its
                // new reader field is an 8-byte word fill.
                std::fill(s + j, s + k, shadow::ShadowHot{writer, next});
                j = k;
            } while (j < n && s[j].writer == writer &&
                     runs.readerOf(s[j].reader) == reader);
        }
        if (a.collecting) {
            commClassifyRead(t, env, st, writer, reader, covered(i, j - 1),
                             a, seg_xfers, unique_bytes_this_access);
        }
        i = j;
    }
}

} // namespace sigil::core

#endif // SIGIL_CORE_COMM_TABLES_HH
