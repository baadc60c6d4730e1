/**
 * @file
 * Two-level shadow memory with a span-oriented, stamp-compressed hot
 * path.
 *
 * Holds shadow state per shadowed unit (byte, or cache line in
 * line-granularity mode) of the guest address space, following
 * Nethercote and Seward's design: a first-level directory indexed by the
 * high bits of the unit index, pointing at lazily created second-level
 * chunks of shadow objects. Chunks are created the first time their
 * address range is touched.
 *
 * Per chunk the state is stored as a structure-of-arrays split:
 *  - a *hot* array (ShadowHot): two 32-bit stamp ids per unit — the
 *    interned producer and last-consumer identities (see
 *    stamp_table.hh). Every traced access reads or writes this record;
 *    at 8 bytes per unit a contiguous span write is a word fill.
 *  - a *cold* array (ShadowCold): re-use run state and line-mode access
 *    totals. The array is allocated lazily, per chunk, the first time a
 *    client asks for it (want_cold) — baseline-mode runs never pay for
 *    it at all;
 *  - a *touched bitmap*: one bit per unit ever returned to a client, so
 *    end-of-run sweeps and eviction handlers visit only units whose
 *    state can differ from the default instead of all kChunkUnits.
 *    The bitmap is also the hot array's init map: both arrays come
 *    uninitialized from a process-wide slot pool that reuses slots in
 *    the order it carved them, and a 64-unit block (one bitmap word) of
 *    hot entries is value-constructed the first time any unit in it is
 *    touched, so a chunk pays only for the blocks it uses;
 *  - a *cold-built mask*: one bit per 64-unit block whose cold entries
 *    are constructed. Only want_cold resolutions (reads that track
 *    re-use or line totals) build cold blocks, so a block that is only
 *    written, or only read outside the region of interest, never pays
 *    for its 2 KiB of cold state. An unbuilt cold block reads as all
 *    zero: runs resolved without want_cold carry a null cold pointer
 *    over it, the sweeps that act on pending runs skip it, and sweeps
 *    of every touched unit and find() present it as zeros.
 *
 * Clients that walk a contiguous unit range should use span(), which
 * resolves each chunk once and yields chunk-clamped runs, instead of
 * calling lookup() per unit.
 *
 * An optional memory limit enables the paper's reclamation: when the
 * number of live chunks would exceed the limit, the least recently
 * touched chunk is evicted (its pending re-use state is handed to an
 * eviction handler first, so statistics lose only precision, not mass).
 * Recency is maintained with an intrusive doubly-linked list over the
 * chunks, making both the touch and the evict constant time.
 */

#ifndef SIGIL_SHADOW_SHADOW_MEMORY_HH
#define SIGIL_SHADOW_SHADOW_MEMORY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "shadow/stamp_table.hh"
#include "vg/types.hh"

namespace sigil::shadow {

/**
 * Hot shadow state of one shadowed unit (Table I of the paper),
 * stamp-compressed: the interned identity of the producer (last
 * writer) and of the last consumer (last reader, with its call
 * number). Id 0 is the null stamp, so a zero record means "never
 * written, never read" and `reader != 0` means a consumer identity is
 * recorded.
 */
struct ShadowHot
{
    StampId writer = 0;
    StampId reader = 0;
};

/**
 * Cold shadow state of one shadowed unit: the current re-use run (how
 * many times the last reader has read this unit and the first/last
 * access timestamps of that run) and the line-granularity access
 * total. Only re-use / line mode touches this record, so it lives in a
 * side array that is not even allocated until such a client asks for
 * it.
 */
struct ShadowCold
{
    /** Timestamp of the run's first and most recent read. */
    vg::Tick runFirstRead = 0;
    vg::Tick runLastRead = 0;
    /** Line-granularity mode: total accesses to this unit, ever. */
    std::uint64_t totalAccesses = 0;
    /** Reads by the last reader in the current re-use run. */
    std::uint32_t runReads = 0;
};

/**
 * Reference to the shadow state of one unit. cold is null when the
 * unit's cold block was never built (no want_cold resolution entered
 * it); clients that only need it opportunistically — finalizing a
 * pending run that can only exist if cold exists — check for null.
 */
struct ShadowRef
{
    ShadowHot &hot;
    ShadowCold *cold;
};

/** Nullable variant of ShadowRef (find() result). */
struct ShadowPtr
{
    ShadowHot *hot = nullptr;
    ShadowCold *cold = nullptr;

    explicit operator bool() const { return hot != nullptr; }
};

/**
 * Which touched units a sweep visits. Sweeps whose visitor is a no-op
 * on some units (finalizing re-use runs never does anything to a unit
 * with no recorded reader, or in a chunk with no cold array) pass a
 * filter so the bit-scan loop skips them without a call through
 * std::function.
 */
enum class SweepFilter
{
    /** Every touched unit. */
    All,
    /** Every touched unit of a built cold block. */
    ColdChunks,
    /** Only units with a recorded reader, in built cold blocks. */
    PendingRuns,
};

/** Allocation / eviction statistics (drives the memory-usage figure). */
struct ShadowStats
{
    std::uint64_t chunksAllocated = 0;
    std::uint64_t chunksLive = 0;
    std::uint64_t chunksPeak = 0;
    std::uint64_t evictions = 0;

    /** Chunks currently holding a (lazily allocated) cold array. */
    std::uint64_t coldArraysLive = 0;

    /** 64-unit blocks of live chunks whose cold entries are built. */
    std::uint64_t coldBlocksLive = 0;

    /**
     * Actual allocated shadow bytes, now and at the high-water mark:
     * hot arrays + touched bitmaps of live chunks, cold arrays where
     * present, plus the stamp table's accounting share. Replaces the
     * old `chunksPeak * chunk_bytes` approximation, which over-counted
     * chunks that never materialized a cold array.
     */
    std::uint64_t bytesLive = 0;
    std::uint64_t bytesPeak = 0;

    std::uint64_t
    peakBytes() const
    {
        return bytesPeak;
    }
};

/** The two-level shadow table. */
class ShadowMemory
{
  public:
    /** Units per second-level chunk (2^12 = 4096). */
    static constexpr unsigned kChunkShift = 12;
    static constexpr std::size_t kChunkUnits = std::size_t{1}
                                               << kChunkShift;
    /** 64-bit words in a chunk's touched bitmap. */
    static constexpr std::size_t kTouchedWords = kChunkUnits / 64;

    struct Config
    {
        /**
         * log2 of the shadowed unit size: 0 shadows every byte, 6
         * shadows 64-byte lines.
         */
        unsigned granularityShift = 0;

        /** Max live chunks; 0 means unlimited (no reclamation). */
        std::size_t maxChunks = 0;
    };

    ShadowMemory() : ShadowMemory(Config{}) {}
    explicit ShadowMemory(const Config &config);

    /**
     * A contiguous run of shadow state inside one chunk: units
     * [firstUnit, firstUnit + count) map to hot[0..count), and to
     * cold[0..count) when their cold blocks are built (else cold is
     * null). span() yields the chunk-clamped runs of an access, split
     * where the cold blocks switch between built and unbuilt unless
     * want_cold built them all; the sweeps yield maximal runs of units
     * matching their filter.
     */
    struct Run
    {
        std::uint64_t firstUnit;
        std::size_t count;
        ShadowHot *hot;
        ShadowCold *cold;
    };

    /**
     * Sweep visitor: called with each maximal run of touched units
     * (matching the sweep's filter) of a chunk, in ascending unit
     * order. The run's pointers are valid only during the call.
     */
    using RunVisitor = std::function<void(const Run &run)>;

    /**
     * Install the eviction handler, called with the touched runs of a
     * chunk about to be evicted. The filter restricts which touched
     * units the runs cover; a handler that only finalizes pending
     * re-use runs passes SweepFilter::PendingRuns so eviction skips
     * the (typically vast) majority of units it would no-op on.
     */
    void setEvictionHandler(RunVisitor handler,
                            SweepFilter filter = SweepFilter::All);

    /** Unit index covering a guest address. */
    std::uint64_t
    unitOf(vg::Addr addr) const
    {
        return addr >> granularityShift_;
    }

    /** Unit index of the last unit covering [addr, addr+size). */
    std::uint64_t
    lastUnitOf(vg::Addr addr, unsigned size) const
    {
        return (addr + (size ? size - 1 : 0)) >> granularityShift_;
    }

    unsigned granularityShift() const { return granularityShift_; }

    /** Shadow unit size in guest bytes. */
    unsigned unitBytes() const { return 1u << granularityShift_; }

    /** @name Stamp interning
     *
     * All stamp ids stored in this shadow come from its own table;
     * interning goes through the shadow so the table's memory share is
     * folded into the byte accounting the moment it grows.
     */
    /// @{
    StampId
    internWriter(const WriterStamp &s)
    {
        std::uint64_t before = stamps_.bytes();
        StampId id = stamps_.internWriter(s);
        if (std::uint64_t after = stamps_.bytes(); after != before)
            bytesAdd(after - before);
        return id;
    }

    StampId
    internReader(const ReaderStamp &s)
    {
        std::uint64_t before = stamps_.bytes();
        StampId id = stamps_.internReader(s);
        if (std::uint64_t after = stamps_.bytes(); after != before)
            bytesAdd(after - before);
        return id;
    }

    const StampTable &stamps() const { return stamps_; }
    /// @}

    /**
     * Locate (creating if needed) the shadow state of a unit, marking
     * its chunk as most recently touched. May evict another chunk when
     * a memory limit is configured. want_cold builds the unit's cold
     * block (materializing the chunk's cold array if it is still
     * absent); without it the returned cold pointer is null unless the
     * block is already built.
     */
    ShadowRef lookup(std::uint64_t unit, bool want_cold = false);

    /**
     * Span-oriented lookup: visit the shadow state of every unit in
     * [first_unit, last_unit] as chunk-clamped contiguous runs,
     * resolving each chunk exactly once. Equivalent to calling
     * lookup() per unit (same touch ordering, same evictions, cold
     * materializations and cold blocks built) without the per-unit
     * directory and recency work. Without want_cold a chunk's run is
     * further split where its cold blocks switch between built and
     * unbuilt. last_unit may be the very last unit of the address
     * space.
     *
     * The references inside a Run are valid only during the callback:
     * the next chunk resolution may evict the chunk that backed it.
     */
    template <typename Fn>
    void
    span(std::uint64_t first_unit, std::uint64_t last_unit,
         bool want_cold, Fn &&fn)
    {
        if (first_unit == last_unit) {
            // Single-unit access (the byte-mode common case): skip the
            // run clamping and range bitmap arithmetic entirely.
            Chunk &chunk = chunkFor(first_unit);
            std::size_t off = first_unit & (kChunkUnits - 1);
            std::uint64_t &word = chunk.touched[off >> 6];
            if (word == 0)
                constructHotBlock(chunk, off >> 6);
            word |= std::uint64_t{1} << (off & 63);
            if (want_cold)
                buildCold(chunk, std::uint64_t{1} << (off >> 6));
            fn(Run{first_unit, 1, chunk.hot.get() + off,
                   coldAt(chunk, off)});
            return;
        }
        std::uint64_t u = first_unit;
        while (true) {
            Chunk &chunk = chunkFor(u);
            std::size_t off = static_cast<std::size_t>(u - chunk.base);
            std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(last_unit - u + 1,
                                        kChunkUnits - off));
            markTouched(chunk, off, n);
            const std::uint64_t blocks =
                blockMask(off >> 6, (off + n - 1) >> 6);
            if (want_cold)
                buildCold(chunk, blocks);
            // One run unless the blocks mix built and unbuilt cold
            // state, which want_cold never leaves.
            const std::uint64_t built = chunk.coldBuilt & blocks;
            if (built == 0 || built == blocks) {
                fn(Run{u, n, chunk.hot.get() + off,
                       built != 0 ? chunk.cold.get() + off : nullptr});
            } else {
                splitByColdBlocks(chunk, off, n, false, fn);
            }
            // Stop on the run that holds last_unit rather than testing
            // u <= last_unit after the step: u + n wraps to 0 when
            // last_unit is the top unit of the address space.
            if (last_unit - u < n)
                return;
            u += n;
        }
    }

    /**
     * Locate without creating or touching; null if the unit's chunk is
     * absent or its block was never touched (never constructed). In a
     * chunk with a cold array, an unbuilt cold block is presented as
     * read-only zeros.
     */
    ShadowPtr find(std::uint64_t unit);

    /**
     * Checkpoint restore of one saved unit: touch it like lookup(),
     * but never evict, so re-populating exactly the saved chunk set
     * (which already respects the limit) cannot perturb it, and
     * return its hot record. A non-null cold is the unit's saved cold
     * record: the chunk gets its cold array, and the unit's block is
     * built and the record stored only when the record is nonzero (an
     * unbuilt block reads as zero). Units must be restored in saved
     * (recency) order.
     */
    ShadowHot &restoreUnit(std::uint64_t unit, const ShadowCold *cold);

    /**
     * Visit every touched shadow object as maximal runs (used for the
     * end-of-run sweep that finalizes pending re-use runs). Chunks are
     * visited in ascending base order so the sweep is deterministic
     * run-to-run; within a chunk only units matching the filter are
     * visited. Under SweepFilter::All the cold entries of an unbuilt
     * block are read-only zeros (a write through them faults), and
     * runs are split at the edges of such blocks.
     */
    void forEach(const RunVisitor &visitor,
                 SweepFilter filter = SweepFilter::All);

    /**
     * Visit the live chunks in recency order (least recently touched
     * first) as (index, has_cold, touched_units) triples — the
     * chunk-level walk the checkpoint writer uses to frame each
     * chunk's unit group. A checkpoint saves chunks in this order so
     * that a restore — which re-lookup()s the units in saved order —
     * reproduces the recency list exactly, and with it every future
     * eviction decision.
     */
    void forEachChunkInRecencyOrder(
        const std::function<void(std::uint64_t index, bool has_cold,
                                 std::uint64_t touched_units)> &fn) const;

    /**
     * Visit the touched units of one resident chunk as maximal runs
     * (ascending unit order), or do nothing if the chunk is absent.
     * The checkpoint writer emits each chunk's unit group with this.
     */
    void forEachInChunk(std::uint64_t index, const RunVisitor &visitor);

    const ShadowStats &stats() const { return stats_; }

    /**
     * Overwrite the cumulative statistics (checkpoint restore). The
     * live-chunk count, cold-array and built cold block counts, and
     * live bytes are re-derived from the directory and stamp table;
     * the byte peak is clamped up to the re-derived live figure.
     */
    void restoreStats(const ShadowStats &stats);

    /**
     * Host bytes of the always-present part of one chunk: the hot unit
     * array plus the touched bitmap.
     */
    static constexpr std::size_t
    chunkHotBytes()
    {
        return kChunkUnits * sizeof(ShadowHot) +
               kTouchedWords * sizeof(std::uint64_t);
    }

    /** Host bytes of one chunk's lazily allocated cold array. */
    static constexpr std::size_t
    chunkColdBytes()
    {
        return kChunkUnits * sizeof(ShadowCold);
    }

    /** Current host bytes held (chunks + stamp table share). */
    std::uint64_t liveBytes() const { return stats_.bytesLive; }

    /** Peak host bytes ever held. */
    std::uint64_t peakBytes() const { return stats_.bytesPeak; }

  private:
    /**
     * Returns a chunk array to the process-wide slot pool it came from
     * (no destructors run).
     */
    struct SlotRelease
    {
        void operator()(ShadowHot *p) const;
        void operator()(ShadowCold *p) const;
    };
    template <typename T>
    using BlockArray = std::unique_ptr<T[], SlotRelease>;

    struct Chunk
    {
        std::uint64_t base = 0; // first unit index covered
        std::uint64_t index = 0;
        /** Blocks are constructed as the touched map marks them. */
        BlockArray<ShadowHot> hot;
        /**
         * Allocated on the first want_cold resolution; blocks are
         * constructed as coldBuilt marks them.
         */
        BlockArray<ShadowCold> cold;
        /**
         * Bit per unit: ever returned via lookup()/span(). A zero word
         * means its 64-unit block of hot entries has not been
         * constructed yet.
         */
        std::uint64_t touched[kTouchedWords] = {};
        /** Bit per 64-unit block: its cold entries are constructed. */
        std::uint64_t coldBuilt = 0;
        /** Intrusive recency list; head = oldest, tail = newest. */
        Chunk *lruPrev = nullptr;
        Chunk *lruNext = nullptr;
    };

    static_assert(kTouchedWords == 64,
                  "Chunk::coldBuilt holds one bit per 64-unit block");

    /**
     * Zeros standing in for the cold entries of an unbuilt block where
     * a sweep or find() must present them. Read-only.
     */
    static const ShadowCold kUnbuiltCold[64];

    /** The kUnbuiltCold entry standing in for unit off of a chunk. */
    static ShadowCold *
    unbuiltColdAt(std::size_t off)
    {
        return const_cast<ShadowCold *>(kUnbuiltCold) + (off & 63);
    }

    Chunk &chunkFor(std::uint64_t unit);
    void materializeCold(Chunk &chunk);

    /** Mask of blocks first_w..last_w (inclusive, both < 64). */
    static std::uint64_t
    blockMask(std::size_t first_w, std::size_t last_w)
    {
        return (~0ull << first_w) & (~0ull >> (63 - last_w));
    }

    /**
     * Build the cold entries of the masked blocks of a chunk that are
     * not built yet, materializing its cold array first if needed.
     */
    void
    buildCold(Chunk &chunk, std::uint64_t blocks)
    {
        if (std::uint64_t want = blocks & ~chunk.coldBuilt; want != 0)
            buildColdBlocks(chunk, want);
    }

    void buildColdBlocks(Chunk &chunk, std::uint64_t blocks);

    /** Cold entry of unit off of a chunk; null if its block is unbuilt. */
    static ShadowCold *
    coldAt(Chunk &chunk, std::size_t off)
    {
        return (chunk.coldBuilt >> (off >> 6)) & 1 ? chunk.cold.get() + off
                                                    : nullptr;
    }

    /**
     * Hand units [off, off + n) of a chunk to fn as runs split where
     * its cold blocks switch between built and unbuilt. Over an
     * unbuilt block cold is null, or, with zeros, points into
     * kUnbuiltCold (then each unbuilt block is a run of its own).
     */
    template <typename Fn>
    static void
    splitByColdBlocks(Chunk &chunk, std::size_t off, std::size_t n,
                      bool zeros, Fn &&fn)
    {
        const std::size_t end = off + n;
        while (true) {
            const std::size_t w = off >> 6;
            const bool built = (chunk.coldBuilt >> w) & 1;
            // Blocks from w on whose state differs from block w's.
            const std::uint64_t flip =
                (built ? ~chunk.coldBuilt : chunk.coldBuilt) >> w;
            std::size_t stop =
                flip == 0 ? kChunkUnits
                          : (w + static_cast<std::size_t>(
                                     std::countr_zero(flip)))
                                << 6;
            ShadowCold *cold = nullptr;
            if (built) {
                cold = chunk.cold.get() + off;
            } else if (zeros) {
                stop = (w + 1) << 6;
                cold = unbuiltColdAt(off);
            }
            const std::size_t m = std::min(end, stop) - off;
            fn(Run{chunk.base + off, m, chunk.hot.get() + off, cold});
            off += m;
            if (off == end)
                return;
        }
    }
    void evictOldest();
    void evictChunkPtr(Chunk *chunk);

    void lruUnlink(Chunk *chunk);
    void lruAppend(Chunk *chunk);

    /**
     * The single owner of the touched-bit scan: every sweep — the
     * ascending walk, the per-chunk checkpoint walk, and the eviction
     * handler pass — visits a chunk's touched units through here, as
     * maximal runs of consecutive touched units matching the filter.
     */
    static void visitTouched(Chunk &chunk, const RunVisitor &visitor,
                             SweepFilter filter);

    void
    bytesAdd(std::uint64_t n)
    {
        stats_.bytesLive += n;
        if (stats_.bytesLive > stats_.bytesPeak)
            stats_.bytesPeak = stats_.bytesLive;
    }

    void
    bytesSub(std::uint64_t n)
    {
        stats_.bytesLive -= n;
    }

    /**
     * Value-construct block w (units [64w, 64w + 64)) of the chunk's
     * hot array. Called on the block's touched word's 0 -> nonzero
     * transition.
     */
    static void constructHotBlock(Chunk &chunk, std::size_t w);

    /**
     * Mark units [off, off + n) of a chunk as touched, constructing
     * every hot block the range enters for the first time.
     */
    static void
    markTouched(Chunk &chunk, std::size_t off, std::size_t n)
    {
        std::size_t first_word = off >> 6;
        std::size_t last_word = (off + n - 1) >> 6;
        std::uint64_t head = ~0ull << (off & 63);
        std::uint64_t tail = ~0ull >> (63 - ((off + n - 1) & 63));
        for (std::size_t w = first_word; w <= last_word; ++w) {
            if (chunk.touched[w] == 0)
                constructHotBlock(chunk, w);
        }
        if (first_word == last_word) {
            chunk.touched[first_word] |= head & tail;
            return;
        }
        chunk.touched[first_word] |= head;
        for (std::size_t w = first_word + 1; w < last_word; ++w)
            chunk.touched[w] = ~0ull;
        chunk.touched[last_word] |= tail;
    }

    unsigned granularityShift_;
    std::size_t maxChunks_;
    std::unordered_map<std::uint64_t, Chunk> directory_;
    /** One-entry lookup cache for the common sequential-access case. */
    Chunk *lastChunk_ = nullptr;
    std::uint64_t lastChunkIndex_ = ~0ull;
    Chunk *lruHead_ = nullptr;
    Chunk *lruTail_ = nullptr;
    RunVisitor evictionHandler_;
    SweepFilter evictionFilter_ = SweepFilter::All;
    StampTable stamps_;
    ShadowStats stats_;
};

} // namespace sigil::shadow

#endif // SIGIL_SHADOW_SHADOW_MEMORY_HH
