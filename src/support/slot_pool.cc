#include "slot_pool.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <new>

#include <sanitizer/asan_interface.h>

#include "support/logging.hh"

namespace sigil {

SlotPool::SlotPool(std::size_t slot_bytes)
    : slotBytes_(slot_bytes), slotsPerRegion_(kRegionBytes / slot_bytes)
{
    if (slotsPerRegion_ == 0)
        fatal("SlotPool: %zu-byte slots do not fit a region", slot_bytes);
}

void *
SlotPool::acquire()
{
    std::lock_guard<std::mutex> lock(mu_);
    while (firstFreeWord_ < free_.size() && free_[firstFreeWord_] == 0)
        ++firstFreeWord_;
    if (firstFreeWord_ == free_.size())
        carveRegion();
    std::uint64_t &word = free_[firstFreeWord_];
    const std::size_t slot =
        firstFreeWord_ * 64 + static_cast<std::size_t>(std::countr_zero(word));
    word &= word - 1;
    char *p =
        regions_[slot / slotsPerRegion_] + slot % slotsPerRegion_ * slotBytes_;
    ASAN_POISON_MEMORY_REGION(p, slotBytes_);
    return p;
}

void
SlotPool::release(void *slot_ptr)
{
    ASAN_POISON_MEMORY_REGION(slot_ptr, slotBytes_);
    const char *p = static_cast<const char *>(slot_ptr);
    std::lock_guard<std::mutex> lock(mu_);
    // The region holding p: the last one based at or below it.
    auto it = std::prev(regionSeq_.upper_bound(p));
    const std::size_t slot =
        it->second * slotsPerRegion_ +
        static_cast<std::size_t>(p - it->first) / slotBytes_;
    free_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    firstFreeWord_ = std::min(firstFreeWord_, slot / 64);
}

void
SlotPool::carveRegion()
{
    void *base = ::mmap(nullptr, kRegionBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    const std::size_t first = regions_.size() * slotsPerRegion_;
    regions_.push_back(static_cast<char *>(base));
    regionSeq_.emplace(regions_.back(), regions_.size() - 1);
    const std::size_t end = first + slotsPerRegion_;
    free_.resize((end + 63) / 64, 0);
    for (std::size_t s = first; s < end; ++s)
        free_[s / 64] |= std::uint64_t{1} << (s % 64);
    firstFreeWord_ = first / 64;
}

} // namespace sigil
