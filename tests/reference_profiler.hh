/**
 * @file
 * The reference profiler: the answer of the differential matrix.
 *
 * A vg::Tool that computes SigilProfiler's profile and event file the
 * plain way, sharing no shadow layout with it. Its shadow is a std::map
 * from unit to a record of its own: the (writer, reader) stamp pair
 * and the unit's re-use run, walked one unit at a time in ascending
 * order. Its memory limit is a chunk-id LRU that mirrors
 * SigilConfig::maxShadowChunks. It classifies bytes with the shared
 * core::commClassifyRead kernel, one unit at a time, and keeps the
 * per-unit re-use rule (extend, close and fold a run), its own
 * event-segment bookkeeping (a segment's transfers go to a std::map,
 * not to the profiler's flat core::XferList), and the `shadow` row's
 * charging rule (liveBytes()) itself. It uses ShadowHot, StampTable and the
 * ShadowMemory constants, and never constructs a shadow::ShadowMemory
 * or a shadow::RunTable.
 *
 * Attach it to the same guest as the profiler under test: both see one
 * event stream, and serialize() renders either.
 */

#ifndef SIGIL_TESTS_REFERENCE_PROFILER_HH
#define SIGIL_TESTS_REFERENCE_PROFILER_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/comm_tables.hh"
#include "core/event_trace.hh"
#include "core/profile.hh"
#include "core/sigil_profiler.hh"
#include "shadow/shadow_memory.hh"
#include "shadow/stamp_table.hh"
#include "vg/guest.hh"
#include "vg/tool.hh"

namespace sigil::fixtures {

class ReferenceProfiler : public vg::Tool
{
  public:
    explicit ReferenceProfiler(const core::SigilConfig &config)
        : config_(config), collecting_(!config.roiOnly)
    {
    }

    /** The guest holds its address, and mru_ points into chunks_. */
    ReferenceProfiler(const ReferenceProfiler &) = delete;
    ReferenceProfiler &operator=(const ReferenceProfiler &) = delete;

    void
    fnEnter(vg::ContextId ctx, vg::CallNum call) override
    {
        if (collecting_)
            ++tables_.row(ctx).calls;
        if (!config_.collectEvents)
            return;
        // A call's first segment is spawned by the caller's open one.
        Thread &t = thread();
        startSegment(t, ctx, call, t.open ? t.segment.seq : 0);
        t.frameLastSeq.push_back(t.segment.seq);
    }

    void
    fnLeave(vg::ContextId, vg::CallNum) override
    {
        if (!config_.collectEvents)
            return;
        Thread &t = thread();
        t.frameLastSeq.pop_back();
        // The caller resumes as a new segment after its previous one.
        if (guest_->callDepth() > 0)
            resume(t);
        else
            flushSegment(t);
    }

    void
    memWrite(vg::Addr addr, unsigned size) override
    {
        const vg::ContextId ctx = guest_->currentContext();
        if (collecting_) {
            tables_.row(ctx).writeBytes += size;
            if (config_.collectObjects)
                objectOf(addr).writeBytes += size;
        }
        Thread &t = thread();
        if (t.open)
            ++t.segment.writes;
        if (size == 0)
            return;
        const shadow::StampId ws = stamps_.internWriter(shadow::WriterStamp{
            t.open ? t.segment.seq : 0, ctx, currentTid_});
        notePeak();
        walk(addr, size, false, [&](std::uint64_t, Unit &unit) {
            closeRun(unit);
            unit.hot = shadow::ShadowHot{ws, 0};
        });
    }

    void
    memRead(vg::Addr addr, unsigned size) override
    {
        const vg::ContextId ctx = guest_->currentContext();
        if (collecting_)
            tables_.row(ctx).readBytes += size;
        Thread &t = thread();
        if (t.open)
            ++t.segment.reads;
        std::uint64_t unique = 0;
        if (size > 0) {
            core::AccessStamp a;
            a.ctx = ctx;
            a.call = guest_->currentCall();
            a.tick = guest_->now();
            a.tid = currentTid_;
            a.segSeq = t.open ? t.segment.seq : 0;
            a.collecting = collecting_;
            const core::ClassifyEnv env{config_.collectReuse,
                                        config_.collectEvents};
            const shadow::StampId rs = stamps_.internReader(
                shadow::ReaderStamp{config_.collectReuse ? a.call : 0, ctx});
            notePeak();
            // Cold state is charged to a chunk from its first read that
            // tracks re-use runs or line totals.
            const bool wants_cold =
                collecting_ &&
                (config_.collectReuse || config_.granularityShift > 0);
            const unsigned shift = config_.granularityShift;
            walk(addr, size, wants_cold, [&](std::uint64_t u, Unit &unit) {
                // The access's bytes inside unit u, on inclusive ends.
                const std::uint64_t lo =
                    std::max<std::uint64_t>(addr, u << shift);
                const std::uint64_t hi = std::min<std::uint64_t>(
                    addr + (size - 1),
                    (u << shift) | ((std::uint64_t{1} << shift) - 1));
                readUnit(unit, env, hi - lo + 1, a, rs, t, unique);
            });
        }
        if (collecting_ && config_.collectObjects) {
            core::ObjectTraffic &obj = objectOf(addr);
            obj.readBytes += size;
            obj.uniqueReadBytes += unique;
        }
    }

    void
    op(std::uint64_t iops, std::uint64_t flops) override
    {
        if (!collecting_)
            return;
        core::CommAggregates &r = tables_.row(guest_->currentContext());
        r.iops += iops;
        r.flops += flops;
        Thread &t = thread();
        if (t.open) {
            t.segment.iops += iops;
            t.segment.flops += flops;
        }
    }

    void
    threadSwitch(vg::ThreadId tid) override
    {
        if (tid >= threads_.size())
            threads_.resize(tid + 1);
        if (!config_.collectEvents) {
            currentTid_ = tid;
            return;
        }
        // A segment cannot span a descheduling.
        flushSegment(thread());
        currentTid_ = tid;
        if (!thread().frameLastSeq.empty())
            resume(thread());
    }

    void
    barrier() override
    {
        if (!config_.collectEvents)
            return;
        // Everything after the barrier is ordered after every thread's
        // last segment before it.
        barrierPreds_.clear();
        for (Thread &t : threads_) {
            flushSegment(t);
            if (!t.frameLastSeq.empty())
                barrierPreds_.push_back(t.frameLastSeq.back());
            t.barrierPending = true;
        }
        if (!thread().frameLastSeq.empty())
            resume(thread());
    }

    void
    roi(bool active) override
    {
        if (config_.roiOnly)
            collecting_ = active;
    }

    void
    finish() override
    {
        for (Thread &t : threads_)
            flushSegment(t);
        // Pending runs are finalized and line totals folded, unit by
        // unit.
        for (auto &[u, unit] : units_) {
            closeRun(unit);
            if (config_.granularityShift > 0 && unit.totalAccesses > 0)
                tables_.lineReuseBreakdown.add(unit.totalAccesses - 1);
        }
    }

    core::SigilProfile
    takeProfile() const
    {
        const vg::ContextTree &ctxs = guest_->contexts();
        core::SigilProfile p;
        p.program = guest_->programName();
        p.granularityShift = config_.granularityShift;
        for (std::size_t i = 0; i < ctxs.size(); ++i) {
            const auto ctx = static_cast<vg::ContextId>(i);
            core::SigilRow row;
            row.ctx = ctx;
            row.parent = ctxs.parent(ctx);
            row.fn = ctxs.function(ctx);
            row.fnName = guest_->functions().name(row.fn);
            row.displayName = ctxs.displayName(ctx);
            row.path = ctxs.pathName(ctx);
            if (i < tables_.rows.size())
                row.agg = tables_.rows[i];
            p.rows.push_back(std::move(row));
        }
        p.edges = tables_.edges;
        p.threadEdges = tables_.threadEdges;
        if (config_.collectObjects) {
            // Row 0 is "<other>"; row i + 1 is allocation i.
            const auto &allocs = guest_->allocations();
            for (std::size_t i = 0; i <= allocs.size(); ++i) {
                core::SigilProfile::ObjectRow row;
                row.tag = i == 0 ? "<other>" : allocs[i - 1].tag;
                if (i > 0) {
                    row.base = allocs[i - 1].base;
                    row.size = allocs[i - 1].size;
                }
                if (i < tables_.objectStats.size()) {
                    row.readBytes = tables_.objectStats[i].readBytes;
                    row.writeBytes = tables_.objectStats[i].writeBytes;
                    row.uniqueReadBytes =
                        tables_.objectStats[i].uniqueReadBytes;
                }
                p.objects.push_back(std::move(row));
            }
        }
        p.unitReuseBreakdown = tables_.unitReuseBreakdown;
        p.lineReuseBreakdown = tables_.lineReuseBreakdown;
        p.shadowPeakBytes = peakBytes_;
        p.shadowEvictions = evictions_;
        return p;
    }

    const core::EventTrace &events() const { return events_; }

  private:
    static constexpr unsigned kChunkShift =
        shadow::ShadowMemory::kChunkShift;

    /** The shadow record of one unit. */
    struct Unit
    {
        /** Producer and last consumer stamps. */
        shadow::ShadowHot hot;
        /** Reads by hot.reader in its pending run; 0 when none. */
        std::uint32_t runReads = 0;
        /** Timestamps of the pending run's first and last read. */
        vg::Tick runFirstRead = 0;
        vg::Tick runLastRead = 0;
        /** Line mode: reads of the unit inside the ROI, ever. */
        std::uint64_t totalAccesses = 0;
    };

    /** A live chunk: its LRU position and whether it holds cold state. */
    struct Chunk
    {
        std::uint64_t lastTouch = 0;
        bool cold = false;
    };

    /** One guest thread's open segment and frame chain. */
    struct Thread
    {
        bool open = false;
        core::ComputeEvent segment;
        /** Producer segment → unique bytes consumed by the segment. */
        std::map<std::uint64_t, std::uint64_t> xfers;
        std::vector<std::uint64_t> frameLastSeq;
        bool barrierPending = false;
    };

    Thread &thread() { return threads_[currentTid_]; }

    /**
     * End the unit's pending re-use run: its read count goes to the
     * program-wide breakdown, and a re-read run to its reader's row,
     * unless the reader ran outside any function.
     */
    void
    closeRun(Unit &unit)
    {
        const vg::ContextId ctx = stamps_.reader(unit.hot.reader).ctx;
        if (unit.runReads != 0 && ctx != vg::kInvalidContext) {
            const std::uint64_t reuse = unit.runReads - 1;
            tables_.unitReuseBreakdown.add(reuse);
            if (reuse >= 1) {
                core::CommAggregates &row = tables_.row(ctx);
                ++row.reusedUnits;
                row.reuseReads += reuse;
                const std::uint64_t lifetime =
                    unit.runLastRead - unit.runFirstRead;
                row.lifetimeSum += lifetime;
                row.lifetimeHist.add(lifetime);
            }
        }
        unit.runReads = 0;
    }

    /**
     * One unit's share (w bytes) of a read by reader stamp rs: classify
     * the bytes inside the ROI, then extend the unit's run if rs
     * already holds one on it, else close it and start one.
     */
    void
    readUnit(Unit &unit, const core::ClassifyEnv &env, std::uint64_t w,
             const core::AccessStamp &a, shadow::StampId rs, Thread &t,
             std::uint64_t &unique)
    {
        if (!a.collecting) {
            closeRun(unit);
            unit.hot.reader = rs;
            return;
        }
        core::commClassifyRead(tables_, env, stamps_, unit.hot.writer,
                               unit.hot.reader, w, a, &classified_, unique);
        for (const auto &[src, bytes] : classified_.entries())
            t.xfers[src] += bytes;
        classified_.clear();
        if (env.collectReuse) {
            if (unit.hot.reader != rs || unit.runReads == 0) {
                closeRun(unit);
                unit.runFirstRead = a.tick;
            }
            ++unit.runReads;
            unit.runLastRead = a.tick;
        }
        if (config_.granularityShift > 0)
            ++unit.totalAccesses;
        unit.hot.reader = rs;
    }

    core::ObjectTraffic &
    objectOf(vg::Addr addr)
    {
        return tables_.objectSlot(guest_->allocationOf(addr));
    }

    /**
     * The charging rule of the `shadow` row: the hot share of every
     * live chunk, the cold share of every live chunk that holds cold
     * state, and the stamp table.
     */
    std::uint64_t
    liveBytes() const
    {
        return chunks_.size() * shadow::ShadowMemory::chunkHotBytes() +
               coldChunks_ * shadow::ShadowMemory::chunkColdBytes() +
               stamps_.bytes();
    }

    void notePeak() { peakBytes_ = std::max(peakBytes_, liveBytes()); }

    /**
     * Visit the units of [addr, addr + size) in ascending order,
     * touching each unit's chunk first. A chunk not yet live is created,
     * after evicting the least recently touched one if the limit is
     * reached.
     */
    template <typename Fn>
    void
    walk(vg::Addr addr, unsigned size, bool wants_cold, Fn &&fn)
    {
        const std::uint64_t first = addr >> config_.granularityShift;
        const std::uint64_t last =
            (addr + (size - 1)) >> config_.granularityShift;
        auto it = units_.lower_bound(first);
        for (std::uint64_t u = first;; ++u) {
            if (touch(u >> kChunkShift, wants_cold))
                it = units_.lower_bound(u); // an eviction moved the map
            if (it == units_.end() || it->first != u)
                it = units_.emplace_hint(it, u, Unit{});
            fn(u, it->second);
            // Exit on the last unit: ++u wraps past the top unit.
            if (u == last)
                return;
            ++it;
        }
    }

    /**
     * Touch a chunk; returns whether that evicted another one. Touching
     * the most recently touched chunk again changes no order, so it
     * skips the lookup.
     */
    bool
    touch(std::uint64_t id, bool wants_cold)
    {
        bool evicted = false;
        if (mru_ == chunks_.end() || mru_->first != id) {
            mru_ = chunks_.find(id);
            if (mru_ == chunks_.end()) {
                if (config_.maxShadowChunks != 0 &&
                    chunks_.size() >= config_.maxShadowChunks) {
                    evictOldest();
                    evicted = true;
                }
                mru_ = chunks_.emplace(id, Chunk{}).first;
                notePeak();
            }
            mru_->second.lastTouch = ++clock_;
        }
        if (wants_cold && !mru_->second.cold) {
            mru_->second.cold = true;
            ++coldChunks_;
            notePeak();
        }
        return evicted;
    }

    /**
     * Evict the least recently touched chunk: finalize its units'
     * pending runs, drop their line totals and erase them.
     */
    void
    evictOldest()
    {
        auto victim = std::min_element(
            chunks_.begin(), chunks_.end(), [](const auto &a, const auto &b) {
                return a.second.lastTouch < b.second.lastTouch;
            });
        const std::uint64_t id = victim->first;
        auto it = units_.lower_bound(id << kChunkShift);
        while (it != units_.end() && it->first >> kChunkShift == id) {
            closeRun(it->second);
            it = units_.erase(it);
        }
        coldChunks_ -= victim->second.cold ? 1 : 0;
        chunks_.erase(victim);
        ++evictions_;
    }

    /** Flush a thread's open segment and open a new one. */
    void
    startSegment(Thread &t, vg::ContextId ctx, vg::CallNum call,
                 std::uint64_t pred)
    {
        flushSegment(t);
        t.segment = core::ComputeEvent{};
        t.segment.seq = nextSeq_++;
        t.segment.predSeq = resolve(pred);
        t.segment.ctx = ctx;
        t.segment.call = call;
        t.open = true;
        if (t.barrierPending) {
            // Zero-byte ordering edges from every thread's pre-barrier
            // work, except the serial predecessor's own chain.
            for (std::uint64_t b : barrierPreds_) {
                const std::uint64_t r = resolve(b);
                if (r != t.segment.predSeq && r != 0)
                    t.xfers.try_emplace(r, 0);
            }
            t.barrierPending = false;
        }
    }

    /**
     * Resume the thread's current frame (an inactive one when it has
     * no call running) as a segment after the frame's previous one.
     */
    void
    resume(Thread &t)
    {
        const bool active = guest_->callDepth() > 0;
        startSegment(t, active ? guest_->currentContext() : vg::kInvalidContext,
                     active ? guest_->currentCall() : 0,
                     t.frameLastSeq.back());
        t.frameLastSeq.back() = t.segment.seq;
    }

    /**
     * Emit a thread's open segment, with its incoming transfers in
     * source order, or record it as skipped when it is empty or falls
     * outside the ROI.
     */
    void
    flushSegment(Thread &t)
    {
        if (!t.open)
            return;
        const core::ComputeEvent &s = t.segment;
        const bool work = s.iops || s.flops || s.reads || s.writes;
        if (collecting_ && (work || !t.xfers.empty())) {
            for (const auto &[src, bytes] : t.xfers) {
                events_.records.push_back(core::EventRecord::makeXfer(
                    core::XferEvent{resolve(src), s.seq, bytes}));
            }
            events_.records.push_back(core::EventRecord::makeCompute(s));
        } else {
            skipped_[s.seq] = s.predSeq;
        }
        t.xfers.clear();
        t.open = false;
    }

    /** Follow skipped segments back to one that is in the trace. */
    std::uint64_t
    resolve(std::uint64_t seq) const
    {
        for (auto it = skipped_.find(seq); it != skipped_.end();
             it = skipped_.find(seq)) {
            seq = it->second;
        }
        return seq;
    }

    const core::SigilConfig config_;
    bool collecting_;
    core::CommTables tables_;

    shadow::StampTable stamps_;
    std::map<std::uint64_t, Unit> units_;
    std::map<std::uint64_t, Chunk> chunks_;
    /** The most recently touched chunk, or end(). */
    std::map<std::uint64_t, Chunk>::iterator mru_ = chunks_.end();
    std::uint64_t coldChunks_ = 0;
    std::uint64_t clock_ = 0;
    std::uint64_t peakBytes_ = 0;
    std::uint64_t evictions_ = 0;

    core::EventTrace events_;
    std::uint64_t nextSeq_ = 1;
    std::vector<Thread> threads_{1};
    /**
     * The kernel's output for one unit: at most one transfer, moved
     * into the thread's std::map at once.
     */
    core::XferList classified_;
    vg::ThreadId currentTid_ = 0;
    /** Skipped segment → the predecessor it forwards to. */
    std::map<std::uint64_t, std::uint64_t> skipped_;
    std::vector<std::uint64_t> barrierPreds_;
};

} // namespace sigil::fixtures

#endif // SIGIL_TESTS_REFERENCE_PROFILER_HH
