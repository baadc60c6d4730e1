#include "sigil_profiler.hh"

#include <algorithm>

#include "support/logging.hh"

namespace sigil::core {

const CommAggregates SigilProfiler::kZero = CommAggregates();

SigilProfiler::SigilProfiler(const SigilConfig &config)
    : config_(config),
      shadow_(shadow::ShadowMemory::Config{config.granularityShift,
                                           config.maxShadowChunks})
{
    shadow_.setEvictionHandler(
        [this](const shadow::ShadowMemory::Run &run) {
            closePendingRuns(run);
        },
        shadow::SweepFilter::PendingRuns);
    shadow_.setPressureHandler(
        [this](int failed_attempts) { degrade(failed_attempts); });
    collecting_ = !config_.roiOnly;
    reuseEnabled_ = config_.collectReuse;
}

SigilProfiler::~SigilProfiler() = default;

void
SigilProfiler::closePendingRuns(const shadow::ShadowMemory::Run &run)
{
    if (!reuseEnabled_ || run.cold == nullptr)
        return;
    for (std::size_t i = 0; i < run.count;) {
        const shadow::StampId reader = run.hot[i].reader;
        std::size_t j = i + 1;
        while (j < run.count && run.hot[j].reader == reader)
            ++j;
        commFinalizeRuns(tables_, shadow_.stamps(), reader, run.cold + i,
                         j - i);
        i = j;
    }
}

void
SigilProfiler::degrade(int failed_attempts)
{
    if (degradationLevel_ == 0) {
        degradationLevel_ = 1;
        if (reuseEnabled_) {
            // Close out every pending run before dropping the mode so
            // the statistics collected so far keep their mass.
            shadow_.forEach(
                [this](const shadow::ShadowMemory::Run &run) {
                    closePendingRuns(run);
                },
                shadow::SweepFilter::PendingRuns);
            reuseEnabled_ = false;
            warn("SigilProfiler: shadow allocation pressure "
                 "(%d failed attempts) — dropping re-use tracking",
                 failed_attempts);
            return;
        }
    }
    if (degradationLevel_ == 1) {
        degradationLevel_ = 2;
        classifyEnabled_ = false;
        warn("SigilProfiler: shadow allocation pressure persists "
             "(%d failed attempts) — dropping read classification",
             failed_attempts);
    }
}

void
SigilProfiler::roi(bool active)
{
    if (config_.roiOnly)
        collecting_ = active;
}

void
SigilProfiler::attach(const vg::Guest &guest)
{
    Tool::attach(guest);
    // The shared handle keeps the governor alive for this profiler's
    // whole lifetime, so shadow_'s raw pointer into it cannot dangle
    // even when the guest is torn down first.
    governorHold_ = guest.governorShared();
    shadow_.setGovernor(governorHold_.get());
}

void
SigilProfiler::fnEnter(vg::ContextId ctx, vg::CallNum call)
{
    if (collecting_)
        ++row(ctx).calls;
    if (!config_.collectEvents)
        return;
    // The first segment of a call is spawned by the caller's segment
    // that was open at the call site (on the same thread).
    SegState &state = seg();
    std::uint64_t pred = state.open ? state.segment.seq : 0;
    startSegment(state, ctx, call, pred);
    state.frameLastSeq.push_back(state.segment.seq);
}

void
SigilProfiler::fnLeave(vg::ContextId ctx, vg::CallNum call)
{
    (void)ctx;
    (void)call;
    if (!config_.collectEvents)
        return;
    SegState &state = seg();
    if (state.frameLastSeq.empty())
        panic("SigilProfiler::fnLeave with no open frame");
    state.frameLastSeq.pop_back();
    // The guest has already popped the left frame, so its current frame
    // (if any) is the caller resuming execution: open a fresh segment
    // for this re-occurrence of the caller, serially ordered after the
    // caller's previous segment (not after the child — functions are
    // modelled as non-blocking).
    if (guest_->callDepth() > 0) {
        startSegment(state, guest_->currentContext(),
                     guest_->currentCall(), state.frameLastSeq.back());
        state.frameLastSeq.back() = state.segment.seq;
    } else {
        flushSegment(state);
    }
}

void
SigilProfiler::memWrite(vg::Addr addr, unsigned size)
{
    const vg::ContextId ctx = guest_->currentContext();
    if (collecting_) {
        row(ctx).writeBytes += size;
        if (config_.collectObjects) {
            tables_.objectSlot(guest_->allocationOf(addr)).writeBytes +=
                size;
        }
    }
    SegState &state = seg();
    if (state.open)
        ++state.segment.writes;
    std::uint64_t seq = state.open ? state.segment.seq : 0;

    // A zero-byte access covers no unit: it must not stamp a producer.
    if (size == 0)
        return;
    std::uint64_t first = shadow_.unitOf(addr);
    std::uint64_t last = shadow_.lastUnitOf(addr, size);
    // One producer identity per access: intern it once, stamp the id.
    const shadow::StampId ws = shadow_.internWriter(
        shadow::WriterStamp{seq, ctx, currentTid_});
    if (config_.referenceShadowPath) {
        // Reference path: resolve the chunk once per unit. The loop
        // exits on the last unit itself: ++u wraps when that is the
        // top unit of the address space.
        for (std::uint64_t u = first;; ++u) {
            shadow::ShadowRef s = shadow_.lookup(u);
            closePendingRuns(shadow::ShadowMemory::Run{u, 1, &s.hot, s.cold});
            s.hot = shadow::ShadowHot{ws, 0};
            if (u == last)
                break;
        }
        return;
    }
    shadow_.span(first, last, /*want_cold=*/false,
                 [&](shadow::ShadowMemory::Run run) {
        // Close pending runs before the overwrite clobbers their
        // reader identity, one group of equal reader stamps at a time.
        closePendingRuns(run);
        // The stamp overwrite itself is a plain 8-byte word fill.
        std::fill(run.hot, run.hot + run.count, shadow::ShadowHot{ws, 0});
    });
}

void
SigilProfiler::memRead(vg::Addr addr, unsigned size)
{
    const vg::ContextId ctx = guest_->currentContext();
    if (collecting_)
        row(ctx).readBytes += size;
    SegState &state = seg();
    if (state.open)
        ++state.segment.reads;

    // A zero-byte access covers no unit: it must not replace the last
    // reader or touch a re-use run.
    std::uint64_t unique_bytes_this_access =
        size == 0 ? 0
                  : classifyRead(addr, size, ctx, guest_->currentCall(),
                                 guest_->now(), state);

    if (collecting_ && config_.collectObjects) {
        ObjectTraffic &obj =
            tables_.objectSlot(guest_->allocationOf(addr));
        obj.readBytes += size;
        obj.uniqueReadBytes += unique_bytes_this_access;
    }
}

std::uint64_t
SigilProfiler::classifyRead(vg::Addr addr, unsigned size, vg::ContextId ctx,
                            vg::CallNum call, vg::Tick now,
                            SegState &state)
{
    std::uint64_t unique_bytes = 0;
    AccessStamp a;
    a.ctx = ctx;
    a.call = call;
    a.tick = now;
    a.tid = currentTid_;
    a.segSeq = state.open ? state.segment.seq : 0;
    a.collecting = collecting_;

    std::uint64_t first = shadow_.unitOf(addr);
    std::uint64_t last = shadow_.lastUnitOf(addr, size);
    const unsigned shift = shadow_.granularityShift();
    // Bytes of the access covered by units [lo_unit, last_unit],
    // computed on inclusive ends: an access may end at the top byte of
    // the address space, where addr + size wraps to 0.
    auto covered = [&](std::uint64_t lo_unit, std::uint64_t last_unit) {
        std::uint64_t lo = std::max<std::uint64_t>(addr, lo_unit << shift);
        std::uint64_t hi = std::min<std::uint64_t>(
            addr + (size - 1),
            (last_unit << shift) | ((std::uint64_t{1} << shift) - 1));
        return hi - lo + 1;
    };
    // Fidelity degrades only inside a chunk resolution, so the flags
    // are snapshotted once per resolved run (or per lookup).
    auto env = [&] {
        return ClassifyEnv{reuseEnabled_, classifyEnabled_,
                           config_.collectEvents, config_.granularityShift};
    };
    // One consumer identity per access, and one cold-materialization
    // decision per access (so a mid-span fidelity flip cannot make the
    // two walk paths materialize differently). The call number only
    // matters for re-use run identity (consecutive-reader equality);
    // with re-use off, classification reads nothing but the reader's
    // context, so collapsing the call keeps the table at one entry
    // per context instead of one per dynamic call.
    const shadow::StampId rs = shadow_.internReader(
        shadow::ReaderStamp{reuseEnabled_ ? call : 0, ctx});
    const bool want_cold = readWantsCold();
    if (config_.referenceShadowPath) {
        // Reference path: resolve the chunk and compute the covered
        // byte width from scratch for every unit.
        for (std::uint64_t u = first;; ++u) {
            shadow::ShadowRef s = shadow_.lookup(u, want_cold);
            commReadRun(tables_, env(), shadow_.stamps(), &s.hot, s.cold,
                        1, covered(u, u), a, rs, &state.xfers,
                        unique_bytes);
            if (u == last)
                break;
        }
        return unique_bytes;
    }
    shadow_.span(first, last, want_cold,
                 [&](shadow::ShadowMemory::Run run) {
        const ClassifyEnv run_env = env();
        // Split the chunk run into maximal runs of units sharing one
        // (writer, reader) stamp pair and classify each run once, in
        // unit order so edges keep their first-seen order.
        for (std::size_t i = 0; i < run.count;) {
            const shadow::ShadowHot pair = run.hot[i];
            std::size_t j = i + 1;
            while (j < run.count && run.hot[j].writer == pair.writer &&
                   run.hot[j].reader == pair.reader) {
                ++j;
            }
            commReadRun(tables_, run_env, shadow_.stamps(), run.hot + i,
                        run.cold ? run.cold + i : nullptr, j - i,
                        covered(run.firstUnit + i, run.firstUnit + j - 1), a,
                        rs, &state.xfers, unique_bytes);
            i = j;
        }
    });
    return unique_bytes;
}

void
SigilProfiler::op(std::uint64_t iops, std::uint64_t flops)
{
    if (!collecting_)
        return;
    CommAggregates &r = row(guest_->currentContext());
    r.iops += iops;
    r.flops += flops;
    SegState &state = seg();
    if (state.open) {
        state.segment.iops += iops;
        state.segment.flops += flops;
    }
}

void
SigilProfiler::threadSwitch(vg::ThreadId tid)
{
    if (static_cast<std::size_t>(tid) >= segStates_.size())
        segStates_.resize(static_cast<std::size_t>(tid) + 1);
    if (!config_.collectEvents) {
        currentTid_ = tid;
        return;
    }
    // A compute segment cannot span a descheduling: flush the outgoing
    // thread's open segment so the trace stays topologically ordered
    // (a consumer on another thread may reference it immediately).
    flushSegment(seg());
    currentTid_ = tid;
    // Resume the incoming thread's current function (if any) as a new
    // segment chained to its previous one. At this point the guest's
    // current thread is already tid.
    SegState &state = seg();
    if (!state.frameLastSeq.empty()) {
        bool active = guest_->callDepth() > 0;
        startSegment(state,
                     active ? guest_->currentContext() : vg::kInvalidContext,
                     active ? guest_->currentCall() : 0,
                     state.frameLastSeq.back());
        state.frameLastSeq.back() = state.segment.seq;
    }
}

std::uint64_t
SigilProfiler::resolvePred(std::uint64_t seq) const
{
    // Follow the forwarding chain through skipped empty segments so an
    // ordering edge never dangles on a segment absent from the trace.
    // Each hop goes to a lower seq, so the walk ends.
    while (seq < skippedPred_.size() && skippedPred_[seq] != kNotSkipped)
        seq = skippedPred_[seq];
    return seq;
}

void
SigilProfiler::barrier()
{
    if (!config_.collectEvents)
        return;
    // Close every thread's open segment; everything after the barrier
    // is ordered after everything before it.
    barrierPreds_.clear();
    for (SegState &state : segStates_) {
        flushSegment(state);
        if (!state.frameLastSeq.empty())
            barrierPreds_.push_back(state.frameLastSeq.back());
        state.barrierPending = true;
    }
    // The current thread keeps running: reopen its segment so the
    // post-barrier work lands in a node that carries the barrier edges.
    SegState &cur = seg();
    if (!cur.frameLastSeq.empty()) {
        bool active = guest_->callDepth() > 0;
        startSegment(cur,
                     active ? guest_->currentContext() : vg::kInvalidContext,
                     active ? guest_->currentCall() : 0,
                     cur.frameLastSeq.back());
        cur.frameLastSeq.back() = cur.segment.seq;
    }
}

void
SigilProfiler::startSegment(SegState &state, vg::ContextId ctx,
                            vg::CallNum call, std::uint64_t pred_seq)
{
    flushSegment(state);
    state.segment = ComputeEvent{};
    state.segment.seq = nextSeq_++;
    state.segment.predSeq = resolvePred(pred_seq);
    state.segment.ctx = ctx;
    state.segment.call = call;
    state.open = true;
    if (state.barrierPending) {
        // Zero-byte ordering edges from every thread's pre-barrier
        // work (the serial predecessor already covers this thread's
        // own chain).
        for (std::uint64_t pred : barrierPreds_) {
            std::uint64_t resolved = resolvePred(pred);
            if (resolved != state.segment.predSeq && resolved != 0)
                state.xfers.try_emplace(resolved, 0);
        }
        state.barrierPending = false;
    }
}

void
SigilProfiler::flushSegment(SegState &state)
{
    if (!state.open)
        return;
    const ComputeEvent &segment = state.segment;
    bool has_work = segment.iops || segment.flops || segment.reads ||
                    segment.writes;
    if (collecting_ && (has_work || !state.xfers.empty())) {
        // Emit incoming transfers in source order: the hash map's
        // iteration order is not part of the observable state, and a
        // checkpoint restore would otherwise reorder the X records.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ordered(
            state.xfers.begin(), state.xfers.end());
        std::sort(ordered.begin(), ordered.end());
        for (const auto &[src, bytes] : ordered) {
            XferEvent x;
            x.srcSeq = resolvePred(src);
            x.dstSeq = segment.seq;
            x.bytes = bytes;
            events_.records.push_back(EventRecord::makeXfer(x));
        }
        events_.records.push_back(EventRecord::makeCompute(segment));
    } else {
        if (segment.seq >= skippedPred_.size())
            skippedPred_.resize(segment.seq + 1, kNotSkipped);
        skippedPred_[segment.seq] = segment.predSeq;
    }
    state.xfers.clear();
    state.open = false;
}

void
SigilProfiler::finish()
{
    for (SegState &state : segStates_)
        flushSegment(state);
    // The end-of-run sweep only finalizes pending re-use runs and (in
    // line mode) folds per-unit access totals: both live in the cold
    // record, so chunks that never materialized one are skipped whole.
    // In line mode a read-then-overwritten unit has no recorded reader
    // but a nonzero access total, so the sweep must visit every unit
    // of a cold chunk; in byte mode units with no recorded reader have
    // nothing pending and are skipped too.
    const shadow::SweepFilter filter =
        config_.granularityShift > 0 ? shadow::SweepFilter::ColdChunks
                                     : shadow::SweepFilter::PendingRuns;
    const bool sweep_needed =
        config_.granularityShift > 0 || reuseEnabled_;
    if (!sweep_needed)
        return;
    shadow_.forEach(
        [this](const shadow::ShadowMemory::Run &run) {
            closePendingRuns(run);
            if (config_.granularityShift == 0 || run.cold == nullptr)
                return;
            // Fold each group of equal access totals with one counted
            // add.
            for (std::size_t i = 0; i < run.count;) {
                const std::uint64_t total = run.cold[i].totalAccesses;
                std::size_t j = i + 1;
                while (j < run.count && run.cold[j].totalAccesses == total)
                    ++j;
                if (total > 0)
                    tables_.lineReuseBreakdown.add(total - 1, j - i);
                i = j;
            }
        },
        filter);
}

const CommAggregates &
SigilProfiler::aggregates(vg::ContextId ctx) const
{
    std::size_t idx = static_cast<std::size_t>(ctx);
    return idx < tables_.rows.size() ? tables_.rows[idx] : kZero;
}

SigilProfile
SigilProfiler::takeProfile() const
{
    if (guest_ == nullptr)
        panic("SigilProfiler::takeProfile before attach");
    const vg::ContextTree &ctxs = guest_->contexts();
    const vg::FunctionRegistry &fns = guest_->functions();

    SigilProfile profile;
    profile.program = guest_->programName();
    profile.granularityShift = config_.granularityShift;
    profile.rows.resize(ctxs.size());
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        vg::ContextId ctx = static_cast<vg::ContextId>(i);
        SigilRow &out = profile.rows[i];
        out.ctx = ctx;
        out.parent = ctxs.parent(ctx);
        out.fn = ctxs.function(ctx);
        out.fnName = fns.name(out.fn);
        out.displayName = ctxs.displayName(ctx);
        out.path = ctxs.pathName(ctx);
        out.agg = aggregates(ctx);
    }
    profile.edges = tables_.edges;
    profile.threadEdges = tables_.threadEdges;
    if (config_.collectObjects) {
        const auto &allocs = guest_->allocations();
        // Row i+1 of objectStats maps to allocation i; row 0 = other.
        for (std::size_t i = 0; i < allocs.size() + 1; ++i) {
            SigilProfile::ObjectRow row;
            if (i == 0) {
                row.tag = "<other>";
            } else {
                row.tag = allocs[i - 1].tag;
                row.base = allocs[i - 1].base;
                row.size = allocs[i - 1].size;
            }
            if (i < tables_.objectStats.size()) {
                row.readBytes = tables_.objectStats[i].readBytes;
                row.writeBytes = tables_.objectStats[i].writeBytes;
                row.uniqueReadBytes =
                    tables_.objectStats[i].uniqueReadBytes;
            }
            profile.objects.push_back(std::move(row));
        }
    }
    profile.unitReuseBreakdown = tables_.unitReuseBreakdown;
    profile.lineReuseBreakdown = tables_.lineReuseBreakdown;
    profile.shadowPeakBytes = shadowPeakBytes();
    profile.shadowEvictions = shadowStats().evictions;
    return profile;
}

namespace {

/** The one SGCP profiler body version this build writes and reads. */
constexpr std::uint8_t kStateVersion = 3;

void
putLinearHistogram(ByteSink &sink, const LinearHistogram &h)
{
    sink.u64(h.binWidth());
    sink.varint(h.numBins());
    for (std::size_t i = 0; i < h.numBins(); ++i)
        sink.u64(h.binCount(i));
    sink.u64(h.overflowCount());
    sink.u64(h.totalValue());
    sink.u64(h.maxValue());
}

bool
getLinearHistogram(ByteSource &src, LinearHistogram &h)
{
    std::uint64_t bin_width = src.u64();
    if (bin_width != h.binWidth())
        return false;
    std::uint64_t n = src.varint();
    if (!src.ok() || n > (std::uint64_t{1} << 24))
        return false;
    std::vector<std::uint64_t> bins(static_cast<std::size_t>(n));
    for (auto &b : bins)
        b = src.u64();
    std::uint64_t overflow = src.u64();
    std::uint64_t sum = src.u64();
    std::uint64_t max = src.u64();
    if (!src.ok())
        return false;
    h.restore(std::move(bins), overflow, sum, max);
    return true;
}

void
putBoundsHistogram(ByteSink &sink, const BoundsHistogram &h)
{
    sink.varint(h.numBins());
    for (std::size_t i = 0; i < h.numBins(); ++i)
        sink.u64(h.binCount(i));
}

bool
getBoundsHistogram(ByteSource &src, BoundsHistogram &h)
{
    std::uint64_t n = src.varint();
    if (n != h.numBins())
        return false;
    std::vector<std::uint64_t> counts(static_cast<std::size_t>(n));
    for (auto &c : counts)
        c = src.u64();
    if (!src.ok())
        return false;
    h.restore(counts);
    return true;
}

void
putAggregates(ByteSink &sink, const CommAggregates &a)
{
    sink.u64(a.calls);
    sink.u64(a.iops);
    sink.u64(a.flops);
    sink.u64(a.readBytes);
    sink.u64(a.writeBytes);
    sink.u64(a.uniqueLocalBytes);
    sink.u64(a.nonuniqueLocalBytes);
    sink.u64(a.uniqueInputBytes);
    sink.u64(a.nonuniqueInputBytes);
    sink.u64(a.uniqueOutputBytes);
    sink.u64(a.nonuniqueOutputBytes);
    sink.u64(a.uniqueInterThreadBytes);
    sink.u64(a.nonuniqueInterThreadBytes);
    sink.u64(a.reusedUnits);
    sink.u64(a.reuseReads);
    sink.u64(a.lifetimeSum);
    putLinearHistogram(sink, a.lifetimeHist);
}

bool
getAggregates(ByteSource &src, CommAggregates &a)
{
    a.calls = src.u64();
    a.iops = src.u64();
    a.flops = src.u64();
    a.readBytes = src.u64();
    a.writeBytes = src.u64();
    a.uniqueLocalBytes = src.u64();
    a.nonuniqueLocalBytes = src.u64();
    a.uniqueInputBytes = src.u64();
    a.nonuniqueInputBytes = src.u64();
    a.uniqueOutputBytes = src.u64();
    a.nonuniqueOutputBytes = src.u64();
    a.uniqueInterThreadBytes = src.u64();
    a.nonuniqueInterThreadBytes = src.u64();
    a.reusedUnits = src.u64();
    a.reuseReads = src.u64();
    a.lifetimeSum = src.u64();
    return getLinearHistogram(src, a.lifetimeHist);
}

void
putComputeEvent(ByteSink &sink, const ComputeEvent &c)
{
    sink.u64(c.seq);
    sink.u64(c.predSeq);
    sink.u32(static_cast<std::uint32_t>(c.ctx));
    sink.u64(c.call);
    sink.u64(c.iops);
    sink.u64(c.flops);
    sink.u64(c.reads);
    sink.u64(c.writes);
}

void
getComputeEvent(ByteSource &src, ComputeEvent &c)
{
    c.seq = src.u64();
    c.predSeq = src.u64();
    c.ctx = static_cast<vg::ContextId>(src.u32());
    c.call = src.u64();
    c.iops = src.u64();
    c.flops = src.u64();
    c.reads = src.u64();
    c.writes = src.u64();
}

} // namespace

void
SigilProfiler::saveState(ByteSink &sink)
{
    // Version 3: a provenance varint (always 1; restore ignores it),
    // then the body — the interned stamp table plus chunk-grouped
    // stamp-id units for the shadow.
    sink.u8(kStateVersion);
    sink.varint(1);

    // Config echo: a checkpoint is only meaningful for the identical
    // collection configuration (referenceShadowPath is excluded — the
    // two shadow walks are bit-identical by contract).
    sink.u8(static_cast<std::uint8_t>(config_.granularityShift));
    sink.u64(config_.maxShadowChunks);
    sink.u8(config_.collectReuse ? 1 : 0);
    sink.u8(config_.collectEvents ? 1 : 0);
    sink.u8(config_.roiOnly ? 1 : 0);
    sink.u8(config_.collectObjects ? 1 : 0);

    sink.u8(collecting_ ? 1 : 0);
    sink.u8(static_cast<std::uint8_t>(degradationLevel_));
    sink.u8(reuseEnabled_ ? 1 : 0);
    sink.u8(classifyEnabled_ ? 1 : 0);

    sink.varint(tables_.rows.size());
    for (const CommAggregates &a : tables_.rows)
        putAggregates(sink, a);

    sink.varint(tables_.edges.size());
    for (const CommEdge &e : tables_.edges) {
        sink.u32(static_cast<std::uint32_t>(e.producer));
        sink.u32(static_cast<std::uint32_t>(e.consumer));
        sink.u64(e.uniqueBytes);
        sink.u64(e.nonuniqueBytes);
    }
    sink.varint(tables_.threadEdges.size());
    for (const ThreadCommEdge &e : tables_.threadEdges) {
        sink.u32(e.producer);
        sink.u32(e.consumer);
        sink.u64(e.uniqueBytes);
        sink.u64(e.nonuniqueBytes);
    }

    putBoundsHistogram(sink, tables_.unitReuseBreakdown);
    putBoundsHistogram(sink, tables_.lineReuseBreakdown);

    sink.varint(tables_.objectStats.size());
    for (const ObjectTraffic &o : tables_.objectStats) {
        sink.u64(o.readBytes);
        sink.u64(o.writeBytes);
        sink.u64(o.uniqueReadBytes);
    }

    sink.varint(events_.records.size());
    for (const EventRecord &r : events_.records) {
        sink.u8(r.kind == EventRecord::Kind::Compute ? 0 : 1);
        if (r.kind == EventRecord::Kind::Compute) {
            putComputeEvent(sink, r.compute);
        } else {
            sink.u64(r.xfer.srcSeq);
            sink.u64(r.xfer.dstSeq);
            sink.u64(r.xfer.bytes);
        }
    }
    sink.u64(nextSeq_);

    sink.varint(segStates_.size());
    for (const SegState &s : segStates_) {
        sink.u8(s.open ? 1 : 0);
        putComputeEvent(sink, s.segment);
        // Canonical order: unordered_map iteration depends on insertion
        // history, which a restore does not replay. Sorting makes the
        // body a pure function of the logical state.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> xfers(
            s.xfers.begin(), s.xfers.end());
        std::sort(xfers.begin(), xfers.end());
        sink.varint(xfers.size());
        for (const auto &[src_seq, bytes] : xfers) {
            sink.u64(src_seq);
            sink.u64(bytes);
        }
        sink.varint(s.frameLastSeq.size());
        for (std::uint64_t seq : s.frameLastSeq)
            sink.u64(seq);
        sink.u8(s.barrierPending ? 1 : 0);
    }
    sink.varint(currentTid_);

    sink.varint(static_cast<std::uint64_t>(
        skippedPred_.size() -
        std::count(skippedPred_.begin(), skippedPred_.end(), kNotSkipped)));
    for (std::uint64_t seq = 0; seq < skippedPred_.size(); ++seq) {
        if (skippedPred_[seq] != kNotSkipped) {
            sink.u64(seq);
            sink.u64(skippedPred_[seq]);
        }
    }
    sink.varint(barrierPreds_.size());
    for (std::uint64_t seq : barrierPreds_)
        sink.u64(seq);

    const shadow::ShadowStats &st = shadow_.stats();
    sink.u64(st.chunksAllocated);
    sink.u64(st.chunksLive);
    sink.u64(st.chunksPeak);
    sink.u64(st.evictions);
    sink.u64(st.allocFailures);

    // Shadow body. The byte peak joins the stats (it is not derivable
    // from chunksPeak, because cold arrays are allocated lazily).
    sink.u64(st.bytesPeak);

    // The FULL stamp table, in id order — including tuples whose only
    // holders were evicted chunks. A resumed run must not re-grow the
    // table for tuples the interrupted run already knew, or its byte
    // accounting (hence its profile) would diverge from an
    // uninterrupted run's.
    const shadow::StampTable &table = shadow_.stamps();
    sink.varint(table.writerCount() - 1);
    for (std::size_t i = 1; i < table.writerCount(); ++i) {
        const shadow::WriterStamp &w =
            table.writer(static_cast<shadow::StampId>(i));
        sink.u64(w.seq);
        sink.u32(static_cast<std::uint32_t>(w.ctx));
        sink.u32(w.thread);
    }
    sink.varint(table.readerCount() - 1);
    for (std::size_t i = 1; i < table.readerCount(); ++i) {
        const shadow::ReaderStamp &r =
            table.reader(static_cast<shadow::StampId>(i));
        sink.u64(r.call);
        sink.u32(static_cast<std::uint32_t>(r.ctx));
    }

    // Chunk groups, least recently used chunk first: restoring in
    // this order reproduces the recency list, hence every future
    // eviction decision. Each group carries its cold-presence flag so
    // the restore re-materializes exactly the saved cold arrays.
    struct ChunkHead
    {
        std::uint64_t index;
        bool hasCold;
        std::uint64_t units;
    };
    std::vector<ChunkHead> heads;
    shadow_.forEachChunkInRecencyOrder(
        [&](std::uint64_t index, bool has_cold, std::uint64_t units) {
            heads.push_back(ChunkHead{index, has_cold, units});
        });
    sink.varint(heads.size());
    for (const ChunkHead &head : heads) {
        sink.varint(head.index);
        sink.u8(head.hasCold ? 1 : 0);
        sink.varint(head.units);
        const std::uint64_t base = head.index
                                   << shadow::ShadowMemory::kChunkShift;
        shadow_.forEachInChunk(
            head.index, [&](const shadow::ShadowMemory::Run &run) {
                for (std::size_t i = 0; i < run.count; ++i) {
                    sink.varint(run.firstUnit + i - base);
                    sink.varint(run.hot[i].writer);
                    sink.varint(run.hot[i].reader);
                    if (head.hasCold) {
                        sink.u64(run.cold[i].runFirstRead);
                        sink.u64(run.cold[i].runLastRead);
                        sink.u64(run.cold[i].totalAccesses);
                        sink.u32(run.cold[i].runReads);
                    }
                }
            });
    }
}

bool
SigilProfiler::restoreState(ByteSource &src)
{
    if (src.u8() != kStateVersion)
        return false;
    // Provenance varint: written as 1, carries no information.
    (void)src.varint();
    if (!src.ok())
        return false;

    if (src.u8() != config_.granularityShift ||
        src.u64() != config_.maxShadowChunks ||
        (src.u8() != 0) != config_.collectReuse ||
        (src.u8() != 0) != config_.collectEvents ||
        (src.u8() != 0) != config_.roiOnly ||
        (src.u8() != 0) != config_.collectObjects) {
        return false;
    }

    collecting_ = src.u8() != 0;
    degradationLevel_ = src.u8();
    reuseEnabled_ = src.u8() != 0;
    classifyEnabled_ = src.u8() != 0;

    std::uint64_t num_rows = src.varint();
    if (!src.ok() || num_rows > (std::uint64_t{1} << 32))
        return false;
    tables_.rows.assign(static_cast<std::size_t>(num_rows),
                        CommAggregates());
    for (CommAggregates &a : tables_.rows) {
        if (!getAggregates(src, a))
            return false;
    }

    std::uint64_t num_edges = src.varint();
    if (!src.ok() || num_edges > (std::uint64_t{1} << 32))
        return false;
    tables_.edges.clear();
    tables_.edgeIndex.clear();
    for (std::uint64_t i = 0; i < num_edges; ++i) {
        CommEdge e;
        e.producer = static_cast<vg::ContextId>(src.u32());
        e.consumer = static_cast<vg::ContextId>(src.u32());
        e.uniqueBytes = src.u64();
        e.nonuniqueBytes = src.u64();
        tables_.edgeIndex.emplace(
            CommTables::edgeKey(e.producer, e.consumer),
            tables_.edges.size());
        tables_.edges.push_back(e);
    }
    std::uint64_t num_tedges = src.varint();
    if (!src.ok() || num_tedges > (std::uint64_t{1} << 32))
        return false;
    tables_.threadEdges.clear();
    tables_.threadEdgeIndex.clear();
    for (std::uint64_t i = 0; i < num_tedges; ++i) {
        ThreadCommEdge e;
        e.producer = src.u32();
        e.consumer = src.u32();
        e.uniqueBytes = src.u64();
        e.nonuniqueBytes = src.u64();
        tables_.threadEdgeIndex.emplace(
            CommTables::threadEdgeKey(e.producer, e.consumer),
            tables_.threadEdges.size());
        tables_.threadEdges.push_back(e);
    }

    if (!getBoundsHistogram(src, tables_.unitReuseBreakdown) ||
        !getBoundsHistogram(src, tables_.lineReuseBreakdown)) {
        return false;
    }

    std::uint64_t num_objs = src.varint();
    if (!src.ok() || num_objs > (std::uint64_t{1} << 32))
        return false;
    tables_.objectStats.assign(static_cast<std::size_t>(num_objs),
                               ObjectTraffic{});
    for (ObjectTraffic &o : tables_.objectStats) {
        o.readBytes = src.u64();
        o.writeBytes = src.u64();
        o.uniqueReadBytes = src.u64();
    }

    std::uint64_t num_records = src.varint();
    if (!src.ok() || num_records > (std::uint64_t{1} << 32))
        return false;
    events_.records.clear();
    events_.records.reserve(static_cast<std::size_t>(num_records));
    for (std::uint64_t i = 0; i < num_records; ++i) {
        if (src.u8() == 0) {
            ComputeEvent c;
            getComputeEvent(src, c);
            events_.records.push_back(EventRecord::makeCompute(c));
        } else {
            XferEvent x;
            x.srcSeq = src.u64();
            x.dstSeq = src.u64();
            x.bytes = src.u64();
            events_.records.push_back(EventRecord::makeXfer(x));
        }
    }
    nextSeq_ = src.u64();

    std::uint64_t num_segs = src.varint();
    if (!src.ok() || num_segs == 0 || num_segs > (std::uint64_t{1} << 20))
        return false;
    segStates_.assign(static_cast<std::size_t>(num_segs), SegState{});
    for (SegState &s : segStates_) {
        s.open = src.u8() != 0;
        getComputeEvent(src, s.segment);
        std::uint64_t num_xfers = src.varint();
        if (!src.ok() || num_xfers > (std::uint64_t{1} << 32))
            return false;
        for (std::uint64_t i = 0; i < num_xfers; ++i) {
            std::uint64_t src_seq = src.u64();
            std::uint64_t bytes = src.u64();
            s.xfers.emplace(src_seq, bytes);
        }
        std::uint64_t num_frames = src.varint();
        if (!src.ok() || num_frames > (std::uint64_t{1} << 24))
            return false;
        s.frameLastSeq.resize(static_cast<std::size_t>(num_frames));
        for (auto &seq : s.frameLastSeq)
            seq = src.u64();
        s.barrierPending = src.u8() != 0;
    }
    currentTid_ = static_cast<vg::ThreadId>(src.varint());
    if (currentTid_ >= segStates_.size())
        return false;

    std::uint64_t num_skipped = src.varint();
    if (!src.ok() || num_skipped > (std::uint64_t{1} << 32))
        return false;
    skippedPred_.clear();
    for (std::uint64_t i = 0; i < num_skipped; ++i) {
        std::uint64_t seq = src.u64();
        std::uint64_t pred = src.u64();
        // A skipped segment was numbered before the save and forwards
        // to an earlier one. The table is indexed by seq, so its size
        // is also capped by a bound that does not come from the payload.
        if (!src.ok() || seq >= nextSeq_ || pred >= seq ||
            seq > (std::uint64_t{1} << 32)) {
            return false;
        }
        if (seq >= skippedPred_.size())
            skippedPred_.resize(seq + 1, kNotSkipped);
        skippedPred_[seq] = pred;
    }
    std::uint64_t num_bpreds = src.varint();
    if (!src.ok() || num_bpreds > (std::uint64_t{1} << 20))
        return false;
    barrierPreds_.resize(static_cast<std::size_t>(num_bpreds));
    for (auto &seq : barrierPreds_)
        seq = src.u64();

    shadow::ShadowStats st;
    st.chunksAllocated = src.u64();
    st.chunksLive = src.u64();
    st.chunksPeak = src.u64();
    st.evictions = src.u64();
    st.allocFailures = src.u64();

    st.bytesPeak = src.u64();

    // Full stamp table of the saving run. Every entry is interned
    // up front — even ones no resident unit references — so the
    // resumed run's table growth (hence byte accounting) matches
    // an uninterrupted run's.
    std::uint64_t wcount = src.varint();
    if (!src.ok() || wcount > (std::uint64_t{1} << 32))
        return false;
    std::vector<shadow::WriterStamp> writers(
        static_cast<std::size_t>(wcount) + 1);
    for (std::uint64_t i = 1; i <= wcount; ++i) {
        shadow::WriterStamp &w = writers[i];
        w.seq = src.u64();
        w.ctx = static_cast<vg::ContextId>(src.u32());
        w.thread = src.u32();
        shadow_.internWriter(w);
    }
    std::uint64_t rcount = src.varint();
    if (!src.ok() || rcount > (std::uint64_t{1} << 32))
        return false;
    std::vector<shadow::ReaderStamp> readers(
        static_cast<std::size_t>(rcount) + 1);
    for (std::uint64_t i = 1; i <= rcount; ++i) {
        shadow::ReaderStamp &r = readers[i];
        r.call = src.u64();
        r.ctx = static_cast<vg::ContextId>(src.u32());
        // The stamp table indexes readers by call number and context:
        // both must lie in the restored guest's numbering (when the
        // profiler is attached to one), the call number under the same
        // cap as the counts above, and a call must keep one context.
        if (!src.ok() || r.ctx < vg::kInvalidContext ||
            r.call > (std::uint64_t{1} << 32) ||
            !shadow_.stamps().readerFits(r)) {
            return false;
        }
        if (guest_ != nullptr &&
            (r.call >= guest_->nextCall() ||
             (r.ctx >= 0 && static_cast<std::size_t>(r.ctx) >=
                                guest_->contexts().size()))) {
            return false;
        }
        shadow_.internReader(r);
    }

    std::uint64_t num_chunks = src.varint();
    if (!src.ok() || num_chunks > (std::uint64_t{1} << 28))
        return false;
    for (std::uint64_t c = 0; c < num_chunks; ++c) {
        std::uint64_t index = src.varint();
        std::uint8_t has_cold = src.u8();
        std::uint64_t num_units = src.varint();
        if (!src.ok() || has_cold > 1 ||
            num_units > shadow::ShadowMemory::kChunkUnits) {
            return false;
        }
        const std::uint64_t base =
            index << shadow::ShadowMemory::kChunkShift;
        for (std::uint64_t i = 0; i < num_units; ++i) {
            std::uint64_t off = src.varint();
            std::uint64_t wid = src.varint();
            std::uint64_t rid = src.varint();
            if (!src.ok() ||
                off >= shadow::ShadowMemory::kChunkUnits ||
                wid > wcount || rid > rcount) {
                return false;
            }
            // Re-intern the resolved tuples rather than trusting the
            // saved ids, so the restore stays correct even if the saved
            // id space and ours ever disagree.
            shadow::ShadowRef obj =
                shadow_.restoreLookup(base + off, has_cold != 0);
            obj.hot.writer = shadow_.internWriter(writers[wid]);
            obj.hot.reader = shadow_.internReader(readers[rid]);
            if (has_cold != 0) {
                obj.cold->runFirstRead = src.u64();
                obj.cold->runLastRead = src.u64();
                obj.cold->totalAccesses = src.u64();
                obj.cold->runReads = src.u32();
            }
        }
    }
    shadow_.restoreStats(st);
    return src.ok();
}

} // namespace sigil::core
