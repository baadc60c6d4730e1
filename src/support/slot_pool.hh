/**
 * @file
 * A process-wide pool of fixed-size memory slots that keeps the pages
 * it has mapped and hands them out again in the order it first did.
 *
 * Shadow chunk arrays and event-record blocks come from one each. A
 * process that repeats an analysis (a benchmark loop, a server loading
 * profiles) then touches the pages of its first repetition again
 * instead of mapping new ones, whatever the allocator's trim heuristics
 * would have done with freed heap memory.
 */

#ifndef SIGIL_SUPPORT_SLOT_POOL_HH
#define SIGIL_SUPPORT_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace sigil {

/**
 * Slots are carved from kRegionBytes anonymous mappings (regions) and
 * numbered in the order they were carved: region sequence, then offset
 * in the region. acquire() always hands out the lowest-numbered free
 * slot, so a run that acquires slots in the same order as the one
 * before it gets the same slots and touches the same pages again, and
 * repeated runs in one process keep the resident set of the first.
 * (Raw address order would not do: later mappings usually sit lower.)
 * Regions are kept for the life of the process. Thread-safe.
 */
class SlotPool
{
  public:
    /** Size of the anonymous mappings carved into slots. */
    static constexpr std::size_t kRegionBytes = std::size_t{2} << 20;

    /** slot_bytes must not exceed kRegionBytes. */
    explicit SlotPool(std::size_t slot_bytes);

    /**
     * The lowest-numbered free slot, poisoned under AddressSanitizer:
     * its contents are garbage until the caller constructs them.
     */
    void *acquire();

    /** Return a slot from acquire(); no destructors run. */
    void release(void *slot_ptr);

  private:
    /** Map a new region and mark its slots free. */
    void carveRegion();

    const std::size_t slotBytes_;
    const std::size_t slotsPerRegion_;
    std::mutex mu_;
    /** Region bases in carve order. */
    std::vector<char *> regions_;
    /** Region base -> carve sequence number, for release(). */
    std::map<const char *, std::size_t> regionSeq_;
    /** Bit per slot in carve order, set while the slot is free. */
    std::vector<std::uint64_t> free_;
    /** No word below this one has a free bit. */
    std::size_t firstFreeWord_ = 0;
};

} // namespace sigil

#endif // SIGIL_SUPPORT_SLOT_POOL_HH
