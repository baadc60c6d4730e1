/**
 * @file
 * The Sigil profiling tool.
 *
 * Implements the paper's measurement methodology (Section II-B): a
 * shadow object per data unit tracks the last writer and last reader;
 * writes mark the producer, reads are classified as local vs.
 * input/output (producer identity) and unique vs. non-unique (last
 * reader identity). In re-use mode the tool additionally tracks per
 * (unit, consuming call) re-use runs — read counts and first/last
 * timestamps — whose lifetimes feed per-function histograms. With event
 * collection enabled the tool also emits the event-file representation
 * (computation segments + data-transfer edges).
 *
 * Two execution engines share the classification kernels
 * (core/comm_tables.hh): the serial path below, and an address-sharded
 * parallel path (core/shard_engine.hh) enabled by
 * vg::GuestConfig::shardCount > 1, whose merged output is bit-identical
 * to the serial path.
 */

#ifndef SIGIL_CORE_SIGIL_PROFILER_HH
#define SIGIL_CORE_SIGIL_PROFILER_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "support/serial.hh"
#include "core/comm_stats.hh"
#include "core/comm_tables.hh"
#include "core/event_trace.hh"
#include "core/profile.hh"
#include "shadow/shadow_memory.hh"
#include "vg/guest.hh"
#include "vg/tool.hh"

namespace sigil::core {

class ShardEngine;

/** Configuration of a profiling run. */
struct SigilConfig
{
    /** 0 = shadow every byte; 6 = shadow 64-byte lines (Fig. 12). */
    unsigned granularityShift = 0;

    /** Shadow-memory limit in chunks; 0 = unlimited. */
    std::size_t maxShadowChunks = 0;

    /** Track re-use runs and lifetimes (Table I "Reuse mode"). */
    bool collectReuse = true;

    /** Emit the event-file representation. */
    bool collectEvents = false;

    /**
     * Collect only inside the guest's region of interest (the PARSEC
     * __parsec_roi_begin/end convention). Shadow state is maintained
     * throughout — producers written during setup are still known —
     * but aggregates, edges, re-use samples, and event records are
     * attributed only within the ROI.
     */
    bool roiOnly = false;

    /**
     * Attribute traffic to the guest's tagged heap allocations
     * (per-data-structure communication).
     */
    bool collectObjects = false;

    /**
     * Use the retained per-unit shadow walk (one ShadowMemory::lookup
     * per unit) instead of the span-oriented hot path. The two paths
     * produce bitwise-identical profiles; this one exists as the
     * reference implementation for differential testing and as the
     * baseline for the span-path microbenchmarks.
     */
    bool referenceShadowPath = false;
};

/** The Sigil communication profiler. */
class SigilProfiler : public vg::Tool
{
  public:
    explicit SigilProfiler(const SigilConfig &config = SigilConfig{});
    ~SigilProfiler() override;

    void attach(const vg::Guest &guest) override;
    void fnEnter(vg::ContextId ctx, vg::CallNum call) override;
    void fnLeave(vg::ContextId ctx, vg::CallNum call) override;
    void memRead(vg::Addr addr, unsigned size) override;
    void memWrite(vg::Addr addr, unsigned size) override;
    void op(std::uint64_t iops, std::uint64_t flops) override;
    void threadSwitch(vg::ThreadId tid) override;
    void barrier() override;
    void roi(bool active) override;
    void finish() override;

    /**
     * Sharded mode: drain the shard queues and fold every shard's
     * partial tables into the authoritative ones (Guest::sync() calls
     * this). No-op in serial mode.
     */
    void sync() override;

    /**
     * Native batch consumer: reads the buffer's lanes directly instead
     * of going through the per-event virtuals and the guest's
     * ambient-state accessors. Produces bit-identical profiles.
     */
    void processBatch(const vg::EventBuffer &batch) override;

    /**
     * Aggregates of one context (zeroes if never seen).
     *
     * With batched/async dispatch (GuestConfig::batchEvents /
     * asyncTools) call Guest::sync() first — the profiler lags the
     * guest until the in-flight buffers drain. Debug builds assert
     * that no events are pending.
     */
    const CommAggregates &aggregates(vg::ContextId ctx) const;

    /**
     * Snapshot the aggregate profile (names, edges, breakdowns).
     * Requires Guest::sync() first under batched/async dispatch (see
     * aggregates()); debug builds assert that no events are pending.
     */
    SigilProfile takeProfile() const;

    /** @name Checkpointing
     *
     * saveState() serializes the complete analysis state — aggregate
     * rows, edges, breakdown histograms, object stats, event-trace
     * records and open segments, and every live shadow chunk (in
     * recency order, so the restore reproduces future eviction
     * decisions). restoreState() rebuilds it into a freshly
     * constructed profiler with an *identical* SigilConfig; a config
     * mismatch or corrupt input returns false.
     *
     * Sharded runs fold before saving, so the snapshot body (always
     * version 3) is engine-independent: a checkpoint written by a
     * sharded run restores into a serial profiler and vice versa, for
     * any shard count. Any other version byte is rejected.
     */
    /// @{
    void saveState(ByteSink &sink);
    bool restoreState(ByteSource &src);
    /// @}

    /**
     * Fidelity degradation under shadow allocation pressure (driven by
     * ShadowMemory's pressure handler): 0 = full fidelity, 1 = re-use
     * tracking dropped (pending runs are finalized first, so existing
     * statistics keep their mass), 2 = read classification dropped
     * (raw byte counts continue). The level only rises. Serial engine
     * only — sharded runs do not consult failure injectors.
     */
    int degradationLevel() const { return degradationLevel_; }

    /**
     * The event trace (empty unless collectEvents). Sharded mode folds
     * pending shard work first, like aggregates().
     */
    const EventTrace &events() const;

    const shadow::ShadowMemory &shadowMemory() const { return shadow_; }

    /**
     * Mutable shadow access for fault-injection harnesses (install an
     * allocation-failure injector before driving the guest). Serial
     * engine only: sharded runs never consult this shadow.
     */
    shadow::ShadowMemory &shadowMemory() { return shadow_; }

    /** True when the address-sharded parallel engine is active. */
    bool sharded() const { return engine_ != nullptr; }

    /**
     * Aggregate shadow allocation statistics: the serial shadow's, or
     * the shard planner's (exact global peak-of-sum) when sharded.
     */
    shadow::ShadowStats shadowStats() const;

    /** Peak host bytes of shadow state across all shards. */
    std::uint64_t shadowPeakBytes() const;

    /**
     * Test hook: permutation in which foldShards() visits shards. The
     * merge is order-independent by construction; the differential
     * tests assert it stays that way. Ignored unless it is a
     * permutation of [0, shardCount).
     */
    void setFoldOrderForTesting(std::vector<unsigned> order);

    const SigilConfig &config() const { return config_; }

  private:
    CommAggregates &
    row(vg::ContextId ctx)
    {
        return tables_.row(ctx);
    }

    /** @name Event bodies with explicit ambient state
     *
     * The per-event virtuals query the guest for the ambient state
     * (current context, call, virtual time, depth) and forward here;
     * processBatch() forwards the buffer's ambient lanes directly.
     */
    /// @{
    void readAccess(vg::Addr addr, unsigned size, vg::ContextId ctx,
                    vg::CallNum call, vg::Tick now);
    void writeAccess(vg::Addr addr, unsigned size, vg::ContextId ctx,
                     vg::CallNum call);
    void opAt(std::uint64_t iops, std::uint64_t flops, vg::ContextId ctx);
    void leaveAt(vg::ContextId resumed_ctx, vg::CallNum resumed_call,
                 std::size_t depth);
    void threadSwitchAt(vg::ThreadId tid, vg::ContextId ctx,
                        vg::CallNum call);
    void barrierAt(vg::ContextId ctx, vg::CallNum call);
    /// @}

    struct SegState;

    /** Flush a thread's open compute segment and start a new one. */
    void startSegment(SegState &state, vg::ContextId ctx,
                      vg::CallNum call, std::uint64_t pred_seq);

    /** Emit a thread's open compute segment (if any) to the trace. */
    void flushSegment(SegState &state);

    /** Resolve a predecessor through any skipped (empty) segments. */
    std::uint64_t resolvePred(std::uint64_t seq) const;

    /**
     * resolvePred() as of an earlier moment: only skip entries with an
     * insertion stamp below the bound are followed. The sharded fold
     * resolves X-record sources with the stamp captured when the
     * consuming segment was flushed, reproducing the serial flush-time
     * resolution even when further segments were skipped since.
     */
    std::uint64_t resolvePredAt(std::uint64_t seq,
                                std::uint64_t stamp_bound) const;

    /** Shed fidelity one rung at a time (see degradationLevel()). */
    void degrade(int failed_attempts);

    /**
     * Whether a read access must materialize the cold record of the
     * units it touches: only re-use tracking and line-mode access
     * totals ever write it. Writes never materialize cold (finalizing
     * an overwritten run only touches a cold record that already
     * exists). Computed once per access, before the shadow walk, so
     * the reference and span paths materialize identically even when
     * fidelity degrades mid-span.
     */
    bool
    readWantsCold() const
    {
        return collecting_ && classifyEnabled_ &&
               (reuseEnabled_ || config_.granularityShift > 0);
    }

    /**
     * Sharded mode: drain the workers and fold their partial tables —
     * rows, breakdowns, object stats, edges in global first-occurrence
     * order, and per-segment transfer maps spliced into the event
     * trace — into the authoritative state. Idempotent.
     */
    void foldShards();

    /**
     * Sharded checkpoint save: pull each open segment's shard-side
     * transfer map into its sequencer SegState so the serialized body
     * matches what a serial run would hold.
     */
    void mergeOpenSegXfers();

    SigilConfig config_;
    shadow::ShadowMemory shadow_;
    /**
     * Keeps the attached guest's MemoryGovernor alive as long as this
     * profiler (tools routinely outlive their guest in tests), so the
     * raw governor pointer installed into shadow_ stays valid.
     */
    std::shared_ptr<sigil::MemoryGovernor> governorHold_;

    /** False while ROI-only collection is outside the ROI. */
    bool collecting_ = true;

    /** @name Degradation ladder state */
    /// @{
    int degradationLevel_ = 0;
    /** config_.collectReuse until degradation level 1. */
    bool reuseEnabled_ = true;
    /** True until degradation level 2. */
    bool classifyEnabled_ = true;
    /// @}

    /** Aggregate rows, edges, breakdowns, object stats. */
    CommTables tables_;

    /** @name Open event-trace segments (one per guest thread) */
    /// @{
    EventTrace events_;
    std::uint64_t nextSeq_ = 1;

    /** Per-thread segment state; threads interleave in the trace. */
    struct SegState
    {
        bool open = false;
        ComputeEvent segment;
        /** Producer segment → unique bytes consumed by the segment. */
        std::unordered_map<std::uint64_t, std::uint64_t> xfers;
        /** Last segment of each active frame on this thread. */
        std::vector<std::uint64_t> frameLastSeq;
        /** The thread must pick up barrier ordering edges. */
        bool barrierPending = false;
    };

    SegState &seg() { return segStates_[currentTid_]; }

    std::vector<SegState> segStates_{1};
    vg::ThreadId currentTid_ = 0;

    /** A skipped empty segment: its predecessor + insertion stamp. */
    struct SkipInfo
    {
        std::uint64_t pred;
        /** Position in the skip sequence (see resolvePredAt). */
        std::uint64_t stamp;
    };

    /** Skipped empty segments: seq → forwarding info. */
    std::unordered_map<std::uint64_t, SkipInfo> skippedSegments_;
    std::uint64_t skipStamp_ = 0;

    /** Every thread's last segment at the most recent barrier. */
    std::vector<std::uint64_t> barrierPreds_;
    /// @}

    /** @name Sharded engine state (null ⇒ fully serial) */
    /// @{
    std::unique_ptr<ShardEngine> engine_;

    /** Routed or flushed work not yet folded into tables_/events_. */
    bool needsFold_ = false;

    /**
     * Emitted C records whose X records wait for the fold: the
     * transfer bytes live shard-side until the queues drain.
     */
    struct PendingSeg
    {
        /** Index of the segment's C record in events_.records. */
        std::size_t recordPos;
        std::uint64_t seq;
        /** skipStamp_ at flush time (see resolvePredAt). */
        std::uint64_t skipStamp;
        /** Sequencer-side xfers (barrier edges, restored entries). */
        std::unordered_map<std::uint64_t, std::uint64_t> xfers;
    };
    std::vector<PendingSeg> pendingSegs_;

    /**
     * Segments flushed without emission (ROI off): their shard-side
     * transfer maps are discarded at the fold, as the serial path
     * discards state.xfers.
     */
    std::vector<std::uint64_t> discardedSeqs_;

    std::vector<unsigned> foldOrder_;
    /// @}

    static const CommAggregates kZero;
};

} // namespace sigil::core

#endif // SIGIL_CORE_SIGIL_PROFILER_HH
