/**
 * @file
 * The "event" representation of an execution (Section II-C2).
 *
 * A program is reduced to a sequence of computation fragments
 * ("segments") separated by data-transfer edges. A new segment starts
 * whenever control enters or re-enters a function; transfers record
 * which earlier segment produced the bytes a segment consumes. The
 * trace preserves inter-function ordering but not ordering within a
 * function, exactly as the paper specifies.
 *
 * Collection is built to cost no hash lookup and no allocation per
 * segment: a segment's incoming transfers accumulate in a flat
 * XferList that is reused from segment to segment, each record is 72
 * bytes, its compute and transfer payloads sharing one union, and the
 * records are appended to fixed blocks that are never moved (see
 * EventRecords).
 */

#ifndef SIGIL_CORE_EVENT_TRACE_HH
#define SIGIL_CORE_EVENT_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "vg/types.hh"

namespace sigil::core {

/** A computation fragment: one contiguous stay inside a function. */
struct ComputeEvent
{
    /** Unique, strictly increasing segment id. */
    std::uint64_t seq = 0;

    /**
     * Segment this one is serially ordered after: the caller's segment
     * for the first segment of a call, or the same call's previous
     * segment for a re-occurrence after a child returned (the
     * conservative ordering edge of the paper's Figure 3). 0 = none.
     */
    std::uint64_t predSeq = 0;

    vg::ContextId ctx = vg::kInvalidContext;
    vg::CallNum call = 0;
    std::uint64_t iops = 0;
    std::uint64_t flops = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
};

/** Unique bytes transferred from a producing segment into a consumer. */
struct XferEvent
{
    /** Producing segment (its ComputeEvent::seq). */
    std::uint64_t srcSeq = 0;
    /** Consuming segment. */
    std::uint64_t dstSeq = 0;
    std::uint64_t bytes = 0;
};

/**
 * One record of the trace, in program order. The payloads share
 * storage: read compute only when kind == Compute, xfer only when
 * kind == Xfer.
 */
struct EventRecord
{
    enum class Kind { Compute, Xfer };

    Kind kind;
    union
    {
        ComputeEvent compute;
        XferEvent xfer;
    };

    static EventRecord
    makeCompute(const ComputeEvent &c)
    {
        return EventRecord(c);
    }

    static EventRecord
    makeXfer(const XferEvent &x)
    {
        return EventRecord(x);
    }

  private:
    explicit EventRecord(const ComputeEvent &c)
        : kind(Kind::Compute), compute(c)
    {
    }

    explicit EventRecord(const XferEvent &x) : kind(Kind::Xfer), xfer(x) {}
};

static_assert(sizeof(EventRecord) <= 72,
              "an event record is its kind plus the larger payload");

/**
 * The incoming transfers of one open segment: (producer seq, unique
 * bytes) pairs in a flat list. add() appends, adding into the last
 * pair when it has the same producer, and sorts and merges the list
 * in place whenever its length doubles past the length of its last
 * merge, so the list never holds more than twice the producers it
 * has seen. clear() keeps the storage, so once the list has grown a
 * segment's transfers allocate nothing.
 */
class XferList
{
  public:
    using Entry = std::pair<std::uint64_t, std::uint64_t>;

    void
    add(std::uint64_t src, std::uint64_t bytes)
    {
        if (!entries_.empty() && entries_.back().first == src) {
            entries_.back().second += bytes;
            return;
        }
        entries_.emplace_back(src, bytes);
        if (entries_.size() > 2 * merged_)
            merge();
    }

    /** Sort by producer and sum each producer's bytes into one pair. */
    void
    merge()
    {
        std::sort(entries_.begin(), entries_.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.first < b.first;
                  });
        std::size_t n = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (n != 0 && entries_[n - 1].first == entries_[i].first)
                entries_[n - 1].second += entries_[i].second;
            else
                entries_[n++] = entries_[i];
        }
        entries_.resize(n);
        merged_ = n;
    }

    /** In arrival order, or by producer right after merge(). */
    const std::vector<Entry> &entries() const { return entries_; }

    bool empty() const { return entries_.empty(); }

    void
    clear()
    {
        entries_.clear();
        merged_ = 0;
    }

  private:
    std::vector<Entry> entries_;
    /** Length of the list after its last merge. */
    std::size_t merged_ = 0;
};

/**
 * The records of a trace, in program order: blocks of kBlockRecords
 * records from a process-wide SlotPool. Appending never moves or
 * copies a record, and a trace holds at most one partly filled block.
 * Blocks go back to the pool, not to the heap, so an analysis repeated
 * in one process (a replay loop, a server) appends into the pages of
 * the previous repetition instead of faulting in new ones, where
 * whether freed heap pages stay mapped turns on the allocator's trim
 * heuristics.
 */
class EventRecords
{
  public:
    static constexpr std::size_t kBlockShift = 10;
    static constexpr std::size_t kBlockRecords = std::size_t{1}
                                                 << kBlockShift;

    /** Walks the records in order (what a range-for needs). */
    template <bool Const>
    class Iter
    {
      public:
        Iter(EventRecord *const *blocks, std::size_t i)
            : blocks_(blocks), i_(i)
        {
        }

        std::conditional_t<Const, const EventRecord &, EventRecord &>
        operator*() const
        {
            return blocks_[i_ >> kBlockShift][i_ & (kBlockRecords - 1)];
        }

        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }

        bool operator==(const Iter &o) const { return i_ == o.i_; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        EventRecord *const *blocks_;
        std::size_t i_;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    EventRecords() = default;
    EventRecords(const EventRecords &o);
    EventRecords(EventRecords &&o) noexcept;
    EventRecords &operator=(EventRecords o) noexcept;
    ~EventRecords() { clear(); }

    void
    push_back(const EventRecord &r)
    {
        if ((size_ & (kBlockRecords - 1)) == 0)
            addBlock();
        new (&blocks_[size_ >> kBlockShift][size_ & (kBlockRecords - 1)])
            EventRecord(r);
        ++size_;
    }

    EventRecord &
    operator[](std::size_t i)
    {
        return blocks_[i >> kBlockShift][i & (kBlockRecords - 1)];
    }

    const EventRecord &
    operator[](std::size_t i) const
    {
        return blocks_[i >> kBlockShift][i & (kBlockRecords - 1)];
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Drop every record and give the blocks back to the pool. */
    void clear();

    iterator begin() { return iterator(blocks_.data(), 0); }
    iterator end() { return iterator(blocks_.data(), size_); }
    const_iterator begin() const { return const_iterator(blocks_.data(), 0); }
    const_iterator end() const
    {
        return const_iterator(blocks_.data(), size_);
    }

  private:
    /** Take a block from the pool for the next kBlockRecords records. */
    void addBlock();

    std::vector<EventRecord *> blocks_;
    std::size_t size_ = 0;
};

/** An in-memory event trace. */
struct EventTrace
{
    EventRecords records;

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }
};

} // namespace sigil::core

#endif // SIGIL_CORE_EVENT_TRACE_HH
