/**
 * @file
 * Communication-classification tables and kernels.
 *
 * The paper's per-byte classification (local vs. input/output, unique
 * vs. non-unique, re-use runs) as free functions over a CommTables:
 * commReadUnit / commWriteUnit / commFinalizeRun. SigilProfiler calls
 * them from both of its shadow walks — the span-oriented hot path and
 * the per-unit reference path — so the two walks share one
 * implementation of the classification and differ only in how they
 * reach the shadow records.
 *
 * Edges are kept in first-seen order: the edge vectors are appended on
 * first occurrence and the key → index maps locate them afterwards,
 * so the profile lists edges in the order the access stream created
 * them.
 */

#ifndef SIGIL_CORE_COMM_TABLES_HH
#define SIGIL_CORE_COMM_TABLES_HH

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

/**
 * Collection environment of the read kernel. The fidelity flags are
 * *references*: a failure-injected chunk allocation can degrade
 * fidelity in the middle of a multi-unit span, and the kernel must
 * observe the flip on the very next unit.
 */
struct ClassifyEnv
{
    const bool &reuseEnabled;
    const bool &classifyEnabled;
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
 * Close the pending re-use run of a shadow object, folding its
 * lifetime into the last reader's statistics and its read count into
 * the program-wide breakdown. A pending run can only exist on a unit
 * whose chunk has a cold array, so a null cold is a no-op.
 */
inline void
commFinalizeRun(CommTables &t, const bool &reuse_enabled,
                const shadow::StampTable &st, shadow::ShadowHot &hot,
                shadow::ShadowCold *cold)
{
    if (!reuse_enabled || cold == nullptr)
        return;
    if (hot.reader == 0 || cold->runReads == 0)
        return;
    const shadow::ReaderStamp &rd = st.reader(hot.reader);
    if (rd.ctx == vg::kInvalidContext)
        return;
    std::uint64_t reuse = cold->runReads - 1;
    t.unitReuseBreakdown.add(reuse);
    if (reuse >= 1) {
        CommAggregates &r = t.row(rd.ctx);
        ++r.reusedUnits;
        r.reuseReads += reuse;
        std::uint64_t lifetime = cold->runLastRead - cold->runFirstRead;
        r.lifetimeSum += lifetime;
        r.lifetimeHist.add(lifetime);
    }
    cold->runReads = 0;
}

/**
 * Record one write into a unit's shadow state. writer_id is the
 * access's producer identity, interned once per access into the
 * shadow's stamp table.
 */
inline void
commWriteUnit(CommTables &t, const bool &reuse_enabled,
              const shadow::StampTable &st, shadow::ShadowHot &hot,
              shadow::ShadowCold *cold, shadow::StampId writer_id)
{
    if (reuse_enabled)
        commFinalizeRun(t, reuse_enabled, st, hot, cold);
    hot.writer = writer_id;
    hot.reader = 0;
}

/**
 * Classify one read of w bytes against a unit's shadow state and
 * update that state. reader_id is the access's consumer identity
 * (a.call, a.ctx), interned once per access. cold may be null when the
 * access does not need the cold record (the caller materializes it
 * exactly when re-use or line mode will touch it). seg_xfers
 * (nullable) receives producer-segment → unique-byte transfers;
 * unique_bytes_this_access accumulates for per-object attribution.
 */
inline void
commReadUnit(CommTables &t, const ClassifyEnv &env,
             const shadow::StampTable &st, shadow::ShadowHot &s,
             shadow::ShadowCold *c, std::uint64_t w,
             const AccessStamp &a, shadow::StampId reader_id,
             std::unordered_map<std::uint64_t, std::uint64_t> *seg_xfers,
             std::uint64_t &unique_bytes_this_access)
{
    const shadow::WriterStamp &wr = st.writer(s.writer);
    const bool ever_written = wr.ctx != vg::kInvalidContext;
    vg::ContextId producer = ever_written ? wr.ctx : kUninitProducer;
    bool unique = st.reader(s.reader).ctx != a.ctx;
    bool local = producer == a.ctx;

    if (!a.collecting) {
        // Outside the ROI: maintain shadow state only. Clear any
        // pending run so pre-ROI reads never leak into ROI stats.
        if (c != nullptr)
            c->runReads = 0;
        s.reader = reader_id;
        return;
    }

    if (!env.classifyEnabled) {
        // Degradation level 2: raw byte totals continue, but per-class
        // aggregation stops. Reader identity is still maintained so a
        // later analysis of the shadow state remains coherent.
        s.reader = reader_id;
        return;
    }

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

    if (env.reuseEnabled) {
        // Stamp interning is injective, so id equality is exactly the
        // old (reader ctx, reader call) pair comparison. Re-use mode
        // always resolves with want_cold, so c is non-null here.
        if (s.reader == reader_id) {
            ++c->runReads;
            c->runLastRead = a.tick;
        } else {
            commFinalizeRun(t, env.reuseEnabled, st, s, c);
            c->runReads = 1;
            c->runFirstRead = a.tick;
            c->runLastRead = a.tick;
        }
    }

    // Per-unit access totals only feed the line-granularity re-use
    // breakdown, so byte-mode reads skip the cold record entirely
    // unless they are tracking a re-use run.
    if (env.granularityShift > 0)
        ++c->totalAccesses;
    s.reader = reader_id;
}

} // namespace sigil::core

#endif // SIGIL_CORE_COMM_TABLES_HH
