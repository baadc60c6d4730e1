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

/** The pool of chunk arrays of T. */
template <typename T>
SlotPool &
poolFor()
{
    constexpr std::size_t bytes = ShadowMemory::kChunkUnits * sizeof(T);
    static_assert(bytes % 4096 == 0 && kRegionBytes % bytes == 0,
                  "chunk arrays are whole pages that tile a region");
    // Never destroyed: a ShadowMemory with static storage duration may
    // release its arrays after exit-time destructors have run.
    static SlotPool *const pool = new SlotPool(bytes);
    return *pool;
}

/**
 * Uninitialized storage for one chunk's worth of T, from its slot
 * pool. Under AddressSanitizer the whole array starts poisoned and
 * each block is unpoisoned as it is constructed, so any read of
 * never-constructed shadow state is reported.
 */
template <typename T>
T *
allocateBlocks()
{
    return static_cast<T *>(poolFor<T>().acquire());
}

/** Value-construct block w (64 entries) of an allocateBlocks() array. */
template <typename T>
void
constructBlockOf(T *array, std::size_t w)
{
    T *block = array + (w << 6);
    ASAN_UNPOISON_MEMORY_REGION(block, 64 * sizeof(T));
    std::uninitialized_value_construct_n(block, 64);
}

} // namespace

const ShadowCold ShadowMemory::kUnbuiltCold[64] = {};

void
ShadowMemory::SlotRelease::operator()(ShadowHot *p) const
{
    poolFor<ShadowHot>().release(p);
}

void
ShadowMemory::SlotRelease::operator()(ShadowCold *p) const
{
    poolFor<ShadowCold>().release(p);
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
ShadowMemory::setEvictionHandler(RunVisitor handler,
                                 SweepFilter filter)
{
    evictionHandler_ = std::move(handler);
    evictionFilter_ = filter;
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
        chunk.hot.reset(allocateBlocks<ShadowHot>());
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
ShadowMemory::materializeCold(Chunk &chunk)
{
    // Allocation only: each block is constructed when a want_cold
    // resolution first enters it (buildColdBlocks).
    chunk.cold.reset(allocateBlocks<ShadowCold>());
    ++stats_.coldArraysLive;
    bytesAdd(chunkColdBytes());
}

void
ShadowMemory::buildColdBlocks(Chunk &chunk, std::uint64_t blocks)
{
    if (!chunk.cold)
        materializeCold(chunk);
    chunk.coldBuilt |= blocks;
    stats_.coldBlocksLive +=
        static_cast<std::uint64_t>(std::popcount(blocks));
    for (; blocks != 0; blocks &= blocks - 1) {
        constructBlockOf(chunk.cold.get(),
                         static_cast<std::size_t>(std::countr_zero(blocks)));
    }
}

void
ShadowMemory::constructHotBlock(Chunk &chunk, std::size_t w)
{
    constructBlockOf(chunk.hot.get(), w);
}

ShadowRef
ShadowMemory::lookup(std::uint64_t unit, bool want_cold)
{
    Chunk &chunk = chunkFor(unit);
    std::size_t off = unit & (kChunkUnits - 1);
    std::uint64_t &word = chunk.touched[off >> 6];
    if (word == 0)
        constructHotBlock(chunk, off >> 6);
    word |= std::uint64_t{1} << (off & 63);
    if (want_cold)
        buildCold(chunk, std::uint64_t{1} << (off >> 6));
    return ShadowRef{chunk.hot[off], coldAt(chunk, off)};
}

ShadowHot &
ShadowMemory::restoreUnit(std::uint64_t unit, const ShadowCold *cold)
{
    const std::size_t saved_max = maxChunks_;
    maxChunks_ = 0;
    ShadowHot &hot = lookup(unit).hot;
    maxChunks_ = saved_max;
    if (cold == nullptr)
        return hot;
    // lookup() left the unit's chunk in the one-entry cache.
    Chunk &chunk = *lastChunk_;
    if (!chunk.cold)
        materializeCold(chunk);
    if (cold->runFirstRead != 0 || cold->runLastRead != 0 ||
        cold->totalAccesses != 0 || cold->runReads != 0) {
        const std::size_t off = unit & (kChunkUnits - 1);
        buildCold(chunk, std::uint64_t{1} << (off >> 6));
        chunk.cold[off] = *cold;
    }
    return hot;
}

ShadowPtr
ShadowMemory::find(std::uint64_t unit)
{
    std::uint64_t index = unit >> kChunkShift;
    auto it = directory_.find(index);
    if (it == directory_.end())
        return ShadowPtr{};
    Chunk &chunk = it->second;
    std::size_t off = unit & (kChunkUnits - 1);
    if (chunk.touched[off >> 6] == 0)
        return ShadowPtr{};
    ShadowCold *cold = coldAt(chunk, off);
    if (cold == nullptr && chunk.cold)
        cold = unbuiltColdAt(off);
    return ShadowPtr{&chunk.hot[off], cold};
}

void
ShadowMemory::visitTouched(Chunk &chunk, const RunVisitor &visitor,
                           SweepFilter filter)
{
    // The filtered sweeps act only on cold state, so they scan the
    // touched bits of built cold blocks alone: an unbuilt block holds
    // no pending run and no access total.
    std::uint64_t scan[kTouchedWords];
    const std::uint64_t *touched = chunk.touched;
    if (filter != SweepFilter::All) {
        if (chunk.coldBuilt == 0)
            return;
        for (std::size_t i = 0; i < kTouchedWords; ++i)
            scan[i] = (chunk.coldBuilt >> i) & 1 ? chunk.touched[i] : 0;
        touched = scan;
    }
    const bool pending_only = filter == SweepFilter::PendingRuns;
    auto emit = [&](std::size_t off, std::size_t n) {
        if (chunk.cold) {
            splitByColdBlocks(chunk, off, n, true, visitor);
            return;
        }
        visitor(Run{chunk.base + off, n, chunk.hot.get() + off, nullptr});
    };
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
        if (!pending_only) {
            emit(first, end - first);
        } else {
            // Split at units with no recorded reader: they hold no
            // pending run.
            std::size_t i = first;
            while (i < end) {
                while (i < end && chunk.hot[i].reader == 0)
                    ++i;
                std::size_t j = i;
                while (j < end && chunk.hot[j].reader != 0)
                    ++j;
                if (j > i)
                    emit(i, j - i);
                i = j;
            }
        }
        if (end == kChunkUnits)
            return;
        w = end >> 6;
        bits = touched[w] & (~0ull << (end & 63));
    }
}

void
ShadowMemory::forEach(const RunVisitor &visitor, SweepFilter filter)
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
        visitTouched(*chunk, visitor, filter);
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
        fn(chunk->index, chunk->cold != nullptr, touched);
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
        visitTouched(*victim, evictionHandler_, evictionFilter_);
    // The lookup cache may point into the evicted chunk.
    lastChunk_ = nullptr;
    lastChunkIndex_ = ~0ull;
    bytesSub(chunkHotBytes());
    if (victim->cold) {
        bytesSub(chunkColdBytes());
        --stats_.coldArraysLive;
        stats_.coldBlocksLive -=
            static_cast<std::uint64_t>(std::popcount(victim->coldBuilt));
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
    visitTouched(it->second, visitor, SweepFilter::All);
}

void
ShadowMemory::restoreStats(const ShadowStats &stats)
{
    stats_ = stats;
    stats_.chunksLive = directory_.size();
    stats_.coldArraysLive = 0;
    stats_.coldBlocksLive = 0;
    std::uint64_t live = stamps_.bytes();
    for (const auto &[index, chunk] : directory_) {
        live += chunkHotBytes();
        if (chunk.cold) {
            live += chunkColdBytes();
            ++stats_.coldArraysLive;
            stats_.coldBlocksLive +=
                static_cast<std::uint64_t>(std::popcount(chunk.coldBuilt));
        }
    }
    stats_.bytesLive = live;
    if (stats_.bytesPeak < stats_.bytesLive)
        stats_.bytesPeak = stats_.bytesLive;
}

} // namespace sigil::shadow
