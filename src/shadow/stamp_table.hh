/**
 * @file
 * Interning table for shadow identity stamps.
 *
 * Every shadowed unit must remember who produced its current value —
 * (segment, context, thread) — and who last consumed it —
 * (call, context). Those tuples are massively repeated: one write
 * segment stamps the same producer identity across every unit it
 * touches. Storing the tuple inline (the pre-stamp ShadowHot was ~40
 * bytes per unit) duplicates it per unit; interning each distinct
 * tuple once and storing a 32-bit stamp id per unit cuts the hot
 * array to 8 bytes per unit and turns span writes into word fills.
 *
 * Stamp id 0 is reserved for the *null* tuple — the default state of
 * a never-written (resp. never-read) unit: writer {seq 0,
 * ctx kInvalidContext, thread 0}, reader {call 0, ctx
 * kInvalidContext}. Interning is injective, so id equality is tuple
 * equality; in particular "unit was never read" is `reader == 0`.
 *
 * Ids are assigned densely in first-intern order, which makes them
 * deterministic for a given access stream: two tables that intern
 * the same tuple sequence assign identical ids (the property a
 * checkpoint restore relies on to reproduce the saved table).
 *
 * Neither side needs a hash index; every index is a plain id vector.
 * A dynamic call runs in exactly one context and the guest numbers
 * calls densely from 1, so a reader stamp with call != 0 is found by
 * its call number; one with call == 0 (re-use off) by its context.
 * Likewise an event segment runs in one context on one thread and the
 * profiler numbers segments densely from 1, so a writer stamp with
 * seq != 0 is found by its seq; one with seq == 0 (no open segment)
 * by its thread, which the guest numbers densely from 0, then its
 * context.
 */

#ifndef SIGIL_SHADOW_STAMP_TABLE_HH
#define SIGIL_SHADOW_STAMP_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vg/types.hh"

namespace sigil::shadow {

/** Index of an interned stamp tuple; 0 is the null stamp. */
using StampId = std::uint32_t;

/**
 * Producer identity of a shadowed unit's current value.
 *
 * Deliberately minimal: classification consumes the producer context,
 * thread (inter-thread edges), and event segment (transfer
 * attribution) — the producer's call number is consumed by nothing,
 * so carrying it would only multiply distinct tuples (one per call
 * instead of one per context) without changing any output. With event
 * collection off, segments never open and `seq` stays 0, so the table
 * holds roughly (contexts × threads) entries for a whole run.
 */
struct WriterStamp
{
    /**
     * Event-trace segment that produced the value (0 = none). A
     * nonzero seq determines ctx and thread (one segment, one context
     * on one thread).
     */
    std::uint64_t seq = 0;
    vg::ContextId ctx = vg::kInvalidContext;
    vg::ThreadId thread = 0;

    bool
    operator==(const WriterStamp &o) const
    {
        return seq == o.seq && ctx == o.ctx && thread == o.thread;
    }
};

/**
 * Identity of a shadowed unit's last consumer.
 *
 * The call number exists solely so that id equality delimits re-use
 * runs (a run ends when a different call or context reads the unit).
 * When re-use collection is off, intern sites pass call = 0 —
 * classification reads only the consumer context, and the table then
 * holds one entry per context instead of one per dynamic call.
 *
 * A nonzero call number determines its context (one dynamic call, one
 * context), and ctx is a real context or kInvalidContext.
 */
struct ReaderStamp
{
    vg::CallNum call = 0;
    vg::ContextId ctx = vg::kInvalidContext;

    bool
    operator==(const ReaderStamp &o) const
    {
        return call == o.call && ctx == o.ctx;
    }
};

/**
 * The interning table: dense id → tuple; writer seq (or, for seq 0,
 * thread and context) → id; reader call number (or, for call 0,
 * context) → id.
 */
class StampTable
{
  public:
    StampTable();

    /** Intern a tuple, returning its (possibly existing) id. */
    StampId internWriter(const WriterStamp &s);
    StampId internReader(const ReaderStamp &s);

    /**
     * Whether s may be interned (internReader() panics on a call read
     * under a second context): its context is real or kInvalidContext,
     * and a call already interned keeps the context it had.
     */
    bool readerFits(const ReaderStamp &s) const;

    /**
     * Whether s may be interned (internWriter() panics on a seq
     * interned under a second identity): its context is real or
     * kInvalidContext, and a seq already interned keeps the context
     * and thread it had.
     */
    bool writerFits(const WriterStamp &s) const;

    /** Resolve an id back to its tuple. */
    const WriterStamp &
    writer(StampId id) const
    {
        return writers_[id];
    }

    const ReaderStamp &
    reader(StampId id) const
    {
        return readers_[id];
    }

    /** Total entries, including the reserved null entry 0. */
    std::size_t writerCount() const { return writers_.size(); }
    std::size_t readerCount() const { return readers_.size(); }

    /**
     * Deterministic memory accounting: bytes attributed to the interned
     * entries beyond the two reserved null entries. Per entry this is
     * the tuple itself plus a fixed index share, so two tables holding
     * the same entries report the same figure regardless of load
     * factors or index layout — a requirement for a resumed run to
     * report the same shadowPeakBytes as an uninterrupted one. The
     * share is a model, not a measurement of either index (both are
     * dense vectors): the figure is part of every rendered profile, so
     * it changes only with the profile format.
     */
    static constexpr std::size_t kIndexShareBytes = 24;

    std::uint64_t
    bytes() const
    {
        return (writers_.size() - 1) *
                   (sizeof(WriterStamp) + kIndexShareBytes) +
               (readers_.size() - 1) *
                   (sizeof(ReaderStamp) + kIndexShareBytes);
    }

  private:
    /**
     * Index slot of a stamp (0 = not interned yet, except for the null
     * stamp, whose id is 0), grown to cover it.
     */
    StampId &writerSlot(const WriterStamp &s);
    StampId &readerSlot(const ReaderStamp &s);

    std::vector<WriterStamp> writers_;
    std::vector<ReaderStamp> readers_;
    /** Ids of writer stamps with seq != 0, indexed by seq. */
    std::vector<StampId> writerBySeq_;
    /** Ids of writer stamps with seq == 0, indexed by thread, ctx + 1. */
    std::vector<std::vector<StampId>> writerByThreadCtx_;
    /** Ids of reader stamps with call != 0, indexed by call. */
    std::vector<StampId> readerByCall_;
    /** Ids of reader stamps with call == 0, indexed by ctx + 1. */
    std::vector<StampId> readerByCtx_;

    /**
     * One-entry intern caches: consecutive accesses share the ambient
     * stamp, so most interns are a repeat of the previous one.
     */
    WriterStamp lastWriter_;
    StampId lastWriterId_ = 0;
    ReaderStamp lastReader_;
    StampId lastReaderId_ = 0;
};

} // namespace sigil::shadow

#endif // SIGIL_SHADOW_STAMP_TABLE_HH
