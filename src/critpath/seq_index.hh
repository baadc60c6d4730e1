/**
 * @file
 * Seq → record-position index for the chain analyses.
 *
 * The profiler numbers compute segments from 1, but a trace's seqs
 * are not dense: a skipped empty segment leaves a gap of one, and with
 * roiOnly every segment outside the region of interest is a gap, so a
 * trace that enters its ROI late starts at a large seq and one that
 * leaves and re-enters it jumps.
 * An events file read from disk may carry any seq at all.
 *
 * So the index is a vector over a window of seqs starting at the first
 * one added, grown only while it stays within a constant factor of the
 * records added (memory is per record, never per seq issued). A seq
 * outside the window goes to an ordered map: its cost is logarithmic
 * whatever the seqs are, where a hash of crafted seqs could collide.
 *
 * The analyses walk the trace once, adding each compute record as they
 * reach it; a seq is found only once its record has been added, so a
 * reference to a later or absent segment finds nothing, exactly as a
 * map filled in trace order would.
 */

#ifndef SIGIL_CRITPATH_SEQ_INDEX_HH
#define SIGIL_CRITPATH_SEQ_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace sigil::critpath {

class SeqIndex
{
  public:
    /** find() result for a seq with no record added yet. */
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** Window slots allowed per record added, plus kMinSlots. */
    static constexpr std::uint64_t kSlotsPerRecord = 8;
    static constexpr std::uint64_t kMinSlots = 4096;

    /** Position recorded for seq, or kAbsent. */
    std::size_t
    find(std::uint64_t seq) const
    {
        // Unsigned offsets wrap, so seq ↔ slot is one-to-one even for
        // seqs below the base.
        const std::uint64_t off = seq - base_;
        if (off < pos_.size() && pos_[off] != kAbsent)
            return pos_[off];
        if (sparse_.empty())
            return kAbsent;
        auto it = sparse_.find(seq);
        return it == sparse_.end() ? kAbsent : it->second;
    }

    /**
     * Record seq at pos unless it already has a position (the first
     * record of a duplicated seq wins). Returns whether it was added.
     */
    bool
    add(std::uint64_t seq, std::size_t pos)
    {
        if (added_ == 0)
            base_ = seq;
        const std::uint64_t off = seq - base_;
        // resize() grows the capacity geometrically: amortized O(1).
        if (off >= pos_.size() &&
            off < kSlotsPerRecord * added_ + kMinSlots) {
            pos_.resize(static_cast<std::size_t>(off) + 1, kAbsent);
        }
        if (off < pos_.size()) {
            // A seq once outside the window may be inside it now.
            if (pos_[off] != kAbsent ||
                (!sparse_.empty() && sparse_.count(seq) != 0)) {
                return false;
            }
            pos_[off] = pos;
        } else if (!sparse_.try_emplace(seq, pos).second) {
            return false;
        }
        ++added_;
        return true;
    }

    /** Slots of the dense window (for tests bounding its size). */
    std::size_t windowSlots() const { return pos_.size(); }

  private:
    std::uint64_t base_ = 0;
    std::uint64_t added_ = 0;
    std::vector<std::size_t> pos_;
    std::map<std::uint64_t, std::size_t> sparse_;
};

} // namespace sigil::critpath

#endif // SIGIL_CRITPATH_SEQ_INDEX_HH
