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
 * The classification itself lives in the kernels of
 * core/comm_tables.hh; the profiler feeds them one access at a time,
 * split into runs of units that share a (writer, reader) stamp pair.
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
     * Aggregates of one context (zeroes if never seen). Current as of
     * the last event the guest dispatched, mid-run included.
     */
    const CommAggregates &aggregates(vg::ContextId ctx) const;

    /** Snapshot the aggregate profile (names, edges, breakdowns). */
    SigilProfile takeProfile() const;

    /** @name Checkpointing
     *
     * saveState() serializes the complete analysis state — aggregate
     * rows, edges, breakdown histograms, object stats, event-trace
     * records and open segments, and every live shadow chunk (in
     * recency order, so the restore reproduces future eviction
     * decisions). restoreState() rebuilds it into a freshly
     * constructed profiler with an *identical* SigilConfig; a config
     * mismatch or corrupt input returns false. The body is always
     * version 3; any other version byte is rejected.
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
     * (raw byte counts continue). The level only rises.
     */
    int degradationLevel() const { return degradationLevel_; }

    /** The event trace (empty unless collectEvents). */
    const EventTrace &events() const { return events_; }

    const shadow::ShadowMemory &shadowMemory() const { return shadow_; }

    /**
     * Mutable shadow access for fault-injection harnesses (install an
     * allocation-failure injector before driving the guest).
     */
    shadow::ShadowMemory &shadowMemory() { return shadow_; }

    /** Shadow allocation statistics. */
    const shadow::ShadowStats &shadowStats() const { return shadow_.stats(); }

    /** Peak host bytes of shadow state. */
    std::uint64_t shadowPeakBytes() const
    {
        return shadow_.stats().peakBytes();
    }

    const SigilConfig &config() const { return config_; }

  private:
    CommAggregates &
    row(vg::ContextId ctx)
    {
        return tables_.row(ctx);
    }

    struct SegState;

    /**
     * The shadow walk of a read of size > 0 bytes: classify it run by
     * run and update the shadow state. Returns the access's unique
     * bytes (for per-object attribution).
     */
    std::uint64_t classifyRead(vg::Addr addr, unsigned size,
                               vg::ContextId ctx, vg::CallNum call,
                               vg::Tick now, SegState &state);

    /**
     * Close the pending re-use runs of a shadow run (no-op unless
     * re-use tracking is on and the run has cold records), one group of
     * equal reader stamps at a time.
     */
    void closePendingRuns(const shadow::ShadowMemory::Run &run);

    /** Flush a thread's open compute segment and start a new one. */
    void startSegment(SegState &state, vg::ContextId ctx,
                      vg::CallNum call, std::uint64_t pred_seq);

    /** Emit a thread's open compute segment (if any) to the trace. */
    void flushSegment(SegState &state);

    /** Resolve a predecessor through any skipped (empty) segments. */
    std::uint64_t resolvePred(std::uint64_t seq) const;

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

    /** skippedPred_ entry of a segment that was not skipped. */
    static constexpr std::uint64_t kNotSkipped = ~std::uint64_t{0};

    /**
     * Forwarding of skipped empty segments, indexed by seq (segments
     * are numbered densely): the predecessor a skipped segment
     * forwards to, or kNotSkipped. Seqs past the end were not skipped.
     */
    std::vector<std::uint64_t> skippedPred_;

    /** Every thread's last segment at the most recent barrier. */
    std::vector<std::uint64_t> barrierPreds_;
    /// @}

    static const CommAggregates kZero;
};

} // namespace sigil::core

#endif // SIGIL_CORE_SIGIL_PROFILER_HH
