#include "shadow_memory.hh"

#include <bit>
#include <vector>

#include <sanitizer/asan_interface.h>

#include "support/logging.hh"
#include "support/slot_pool.hh"

namespace sigil::shadow {

namespace {

/** The pool of chunk hot arrays. */
SlotPool &
hotPool()
{
    constexpr std::size_t bytes =
        ShadowMemory::kChunkUnits * sizeof(ShadowHot);
    static_assert(bytes % 4096 == 0 && SlotPool::kRegionBytes % bytes == 0,
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
