#include "shadow_memory.hh"

#include <sys/mman.h>

#include <bit>
#include <iterator>
#include <map>
#include <mutex>
#include <new>
#include <vector>

#include <sanitizer/asan_interface.h>

#include "support/logging.hh"

namespace sigil::shadow {

namespace {

/** Size of the anonymous mappings a SlotPool carves into slots. */
constexpr std::size_t kRegionBytes = std::size_t{2} << 20;

/**
 * Process-wide pool of chunk arrays of one size. Slots are carved
 * from kRegionBytes anonymous mappings (regions) and numbered in the
 * order they were carved: region sequence, then offset in the region.
 * acquire() always hands out the lowest-numbered free slot, so a
 * replay that creates chunks in the same order as the one before it
 * gets the same slots and touches the same pages again, and repeated
 * replays in one process keep the resident set of the first. (Raw
 * address order would not do: later mappings usually sit lower.)
 * Regions are kept for the life of the process. Thread-safe.
 */
class SlotPool
{
  public:
    explicit SlotPool(std::size_t slot_bytes)
        : slotBytes_(slot_bytes), slotsPerRegion_(kRegionBytes / slot_bytes)
    {
    }

    /**
     * The lowest-numbered free slot, poisoned under AddressSanitizer:
     * its contents are garbage until the caller constructs them.
     */
    void *
    acquire()
    {
        std::lock_guard<std::mutex> lock(mu_);
        while (firstFreeWord_ < free_.size() && free_[firstFreeWord_] == 0)
            ++firstFreeWord_;
        if (firstFreeWord_ == free_.size())
            carveRegion();
        std::uint64_t &word = free_[firstFreeWord_];
        const std::size_t slot =
            firstFreeWord_ * 64 +
            static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        char *p = regions_[slot / slotsPerRegion_] +
                  slot % slotsPerRegion_ * slotBytes_;
        ASAN_POISON_MEMORY_REGION(p, slotBytes_);
        return p;
    }

    /** Return a slot from acquire(); no destructors run. */
    void
    release(void *slot_ptr)
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

  private:
    /** Map a new region and mark its slots free. */
    void
    carveRegion()
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

/** The pool of chunk hot arrays. */
SlotPool &
hotPool()
{
    constexpr std::size_t bytes =
        ShadowMemory::kChunkUnits * sizeof(ShadowHot);
    static_assert(bytes % 4096 == 0 && kRegionBytes % bytes == 0,
                  "chunk arrays are whole pages that tile a region");
    // Never destroyed: a ShadowMemory with static storage duration may
    // release its arrays after exit-time destructors have run.
    static SlotPool *const pool = new SlotPool(bytes);
    return *pool;
}

} // namespace

void
ShadowMemory::SlotRelease::operator()(ShadowHot *p) const
{
    hotPool().release(p);
}

ShadowMemory::ShadowMemory(const Config &config)
    : granularityShift_(config.granularityShift),
      maxChunks_(config.maxChunks)
{
    if (granularityShift_ > 12)
        fatal("shadow granularity shift %u too large (max 12)",
              granularityShift_);
    if (maxChunks_ == 1)
        fatal("shadow memory limit must allow at least 2 chunks");
}

void
ShadowMemory::setEvictionHandler(RunVisitor handler)
{
    evictionHandler_ = std::move(handler);
}

void
ShadowMemory::lruUnlink(Chunk *chunk)
{
    if (chunk->lruPrev != nullptr)
        chunk->lruPrev->lruNext = chunk->lruNext;
    else
        lruHead_ = chunk->lruNext;
    if (chunk->lruNext != nullptr)
        chunk->lruNext->lruPrev = chunk->lruPrev;
    else
        lruTail_ = chunk->lruPrev;
    chunk->lruPrev = nullptr;
    chunk->lruNext = nullptr;
}

void
ShadowMemory::lruAppend(Chunk *chunk)
{
    chunk->lruPrev = lruTail_;
    chunk->lruNext = nullptr;
    if (lruTail_ != nullptr)
        lruTail_->lruNext = chunk;
    else
        lruHead_ = chunk;
    lruTail_ = chunk;
}

ShadowMemory::Chunk &
ShadowMemory::chunkFor(std::uint64_t unit)
{
    std::uint64_t index = unit >> kChunkShift;
    // The cached chunk is the most recently touched one, so a cache hit
    // needs no recency-list maintenance at all.
    if (lastChunk_ != nullptr && index == lastChunkIndex_)
        return *lastChunk_;

    auto it = directory_.find(index);
    if (it == directory_.end()) {
        if (maxChunks_ != 0 && directory_.size() >= maxChunks_)
            evictOldest();
        Chunk chunk;
        chunk.base = index << kChunkShift;
        chunk.index = index;
        // Uninitialized, from the slot pool. Under AddressSanitizer the
        // array starts poisoned and each block is unpoisoned as it is
        // constructed, so any read of never-constructed state is
        // reported.
        chunk.hot.reset(static_cast<ShadowHot *>(hotPool().acquire()));
        it = directory_.emplace(index, std::move(chunk)).first;
        lruAppend(&it->second);
        ++stats_.chunksAllocated;
        stats_.chunksLive = directory_.size();
        if (stats_.chunksLive > stats_.chunksPeak)
            stats_.chunksPeak = stats_.chunksLive;
        bytesAdd(chunkHotBytes());
    } else if (&it->second != lruTail_) {
        lruUnlink(&it->second);
        lruAppend(&it->second);
    }
    lastChunk_ = &it->second;
    lastChunkIndex_ = index;
    return it->second;
}

void
ShadowMemory::chargeCold(Chunk &chunk)
{
    chunk.hasCold = true;
    if (granularityShift_ > 0)
        chunk.totals.reset(new std::uint64_t[kChunkUnits]());
    ++stats_.coldArraysLive;
    bytesAdd(chunkColdBytes());
}

void
ShadowMemory::constructHotBlock(Chunk &chunk, std::size_t w)
{
    ShadowHot *block = chunk.hot.get() + (w << 6);
    ASAN_UNPOISON_MEMORY_REGION(block, 64 * sizeof(ShadowHot));
    std::uninitialized_value_construct_n(block, 64);
}

ShadowHot &
ShadowMemory::lookup(std::uint64_t unit, bool want_cold)
{
    ShadowHot *hot = nullptr;
    span(unit, unit, want_cold, [&](const Run &run) { hot = run.hot; });
    return *hot;
}

ShadowMemory::Run
ShadowMemory::restoreUnit(std::uint64_t unit, bool has_cold)
{
    const std::size_t saved_max = maxChunks_;
    maxChunks_ = 0;
    Run out{};
    span(unit, unit, has_cold, [&](const Run &run) { out = run; });
    maxChunks_ = saved_max;
    return out;
}

ShadowHot *
ShadowMemory::find(std::uint64_t unit)
{
    std::uint64_t index = unit >> kChunkShift;
    auto it = directory_.find(index);
    if (it == directory_.end())
        return nullptr;
    Chunk &chunk = it->second;
    std::size_t off = unit & (kChunkUnits - 1);
    if (chunk.touched[off >> 6] == 0)
        return nullptr;
    return &chunk.hot[off];
}

void
ShadowMemory::visitTouched(Chunk &chunk, const RunVisitor &visitor)
{
    const std::uint64_t *touched = chunk.touched;
    std::size_t w = 0;
    std::uint64_t bits = touched[0];
    while (true) {
        // Start of the next touched run: the lowest set bit at or
        // after the scan position.
        while (bits == 0) {
            if (++w == kTouchedWords)
                return;
            bits = touched[w];
        }
        const std::size_t first =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        // Its end: the lowest clear bit after the start.
        std::uint64_t clear = ~touched[w] & (~0ull << (first & 63));
        while (clear == 0 && ++w < kTouchedWords)
            clear = ~touched[w];
        const std::size_t end =
            w == kTouchedWords
                ? kChunkUnits
                : (w << 6) + static_cast<std::size_t>(std::countr_zero(clear));
        visitor(runAt(chunk, first, end - first));
        if (end == kChunkUnits)
            return;
        w = end >> 6;
        bits = touched[w] & (~0ull << (end & 63));
    }
}

void
ShadowMemory::forEach(const RunVisitor &visitor)
{
    std::vector<Chunk *> chunks;
    chunks.reserve(directory_.size());
    for (auto &[index, chunk] : directory_)
        chunks.push_back(&chunk);
    std::sort(chunks.begin(), chunks.end(),
              [](const Chunk *a, const Chunk *b) {
                  return a->base < b->base;
              });
    for (Chunk *chunk : chunks)
        visitTouched(*chunk, visitor);
}

void
ShadowMemory::forEachChunkInRecencyOrder(
    const std::function<void(std::uint64_t, bool, std::uint64_t)> &fn)
    const
{
    for (const Chunk *chunk = lruHead_; chunk != nullptr;
         chunk = chunk->lruNext) {
        std::uint64_t touched = 0;
        for (std::size_t w = 0; w < kTouchedWords; ++w)
            touched += static_cast<std::uint64_t>(
                std::popcount(chunk->touched[w]));
        fn(chunk->index, chunk->hasCold, touched);
    }
}

void
ShadowMemory::evictOldest()
{
    if (lruHead_ == nullptr)
        panic("ShadowMemory::evictOldest with no chunks");
    evictChunkPtr(lruHead_);
}

void
ShadowMemory::evictChunkPtr(Chunk *victim)
{
    if (evictionHandler_)
        visitTouched(*victim, evictionHandler_);
    // The lookup cache may point into the evicted chunk.
    lastChunk_ = nullptr;
    lastChunkIndex_ = ~0ull;
    bytesSub(chunkHotBytes());
    if (victim->hasCold) {
        bytesSub(chunkColdBytes());
        --stats_.coldArraysLive;
    }
    lruUnlink(victim);
    directory_.erase(victim->index);
    ++stats_.evictions;
    stats_.chunksLive = directory_.size();
}

void
ShadowMemory::forEachInChunk(std::uint64_t index,
                             const RunVisitor &visitor)
{
    auto it = directory_.find(index);
    if (it == directory_.end())
        return;
    visitTouched(it->second, visitor);
}

void
ShadowMemory::restoreStats(const ShadowStats &stats)
{
    stats_ = stats;
    stats_.chunksLive = directory_.size();
    stats_.coldArraysLive = 0;
    std::uint64_t live = stamps_.bytes();
    for (const auto &[index, chunk] : directory_) {
        live += chunkHotBytes();
        if (chunk.hasCold) {
            live += chunkColdBytes();
            ++stats_.coldArraysLive;
        }
    }
    stats_.bytesLive = live;
    if (stats_.bytesPeak < stats_.bytesLive)
        stats_.bytesPeak = stats_.bytesLive;
}

} // namespace sigil::shadow
