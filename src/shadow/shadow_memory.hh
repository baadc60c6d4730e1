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
 * Per chunk the state is stored as:
 *  - a *hot* array (ShadowHot): two 32-bit ids per unit — the interned
 *    producer stamp and either the last consumer's stamp or the id of
 *    the unit's pending re-use run (see stamp_table.hh and
 *    run_table.hh). Every traced access reads or writes this record;
 *    at 8 bytes per unit a contiguous span write is a word fill.
 *  - a *touched bitmap*: one bit per unit ever returned to a client, so
 *    end-of-run sweeps and eviction handlers visit only units whose
 *    state can differ from the default instead of all kChunkUnits.
 *    The bitmap is also the hot array's init map: the array comes
 *    uninitialized from a process-wide slot pool that reuses slots in
 *    the order it carved them, and a 64-unit block (one bitmap word) of
 *    hot entries is value-constructed the first time any unit in it is
 *    touched, so a chunk pays only for the blocks it uses;
 *  - in line-granularity mode only, an *access-total* array: one u64
 *    per unit, allocated on the chunk's first read that tracks re-use
 *    or line totals.
 *
 * The re-use runs themselves live in one RunTable per shadow, one
 * record per run however many units name it. The `shadow` row keeps
 * charging a chunk a per-unit cold array (chunkColdBytes()) from that
 * first read on: the row is a charging model of the paper's per-unit
 * layout, not a count of resident bytes.
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
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "shadow/run_table.hh"
#include "shadow/stamp_table.hh"
#include "support/logging.hh"
#include "vg/types.hh"

namespace sigil::shadow {

/**
 * Hot shadow state of one shadowed unit (Table I of the paper),
 * stamp-compressed: the interned identity of the producer (last
 * writer) and of the last consumer (last reader, with its call
 * number). Id 0 is the null stamp, so a zero record means "never
 * written, never read". While the unit has a pending re-use run,
 * `reader` holds the run's id instead (RunTable::isRun), and the run's
 * record holds the reader stamp.
 */
struct ShadowHot
{
    StampId writer = 0;
    StampId reader = 0;
};

/** Allocation / eviction statistics (drives the memory-usage figure). */
struct ShadowStats
{
    std::uint64_t chunksAllocated = 0;
    std::uint64_t chunksLive = 0;
    std::uint64_t chunksPeak = 0;
    std::uint64_t evictions = 0;

    /** Live chunks charged a cold array (chunkColdBytes()). */
    std::uint64_t coldArraysLive = 0;

    /** Re-use run records, now and at the high-water mark. */
    std::uint64_t runsLive = 0;
    std::uint64_t runsPeak = 0;

    /**
     * Charged shadow bytes, now and at the high-water mark: the hot
     * array and touched bitmap of every live chunk, a per-unit cold
     * array (chunkColdBytes()) for every chunk charged one, plus the
     * stamp table's accounting share. This is a charging model of the
     * paper's per-unit layout: re-use runs are stored once per run and
     * hot blocks are built on first touch, so the process holds less.
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
     * [firstUnit, firstUnit + count) map to hot[0..count), and in line
     * mode to totals[0..count) once the chunk has its access totals
     * (else totals is null). span() yields the chunk-clamped runs of an
     * access; the sweeps yield maximal runs of touched units.
     */
    struct Run
    {
        std::uint64_t firstUnit;
        std::size_t count;
        ShadowHot *hot;
        std::uint64_t *totals;
    };

    /**
     * Sweep visitor: called with each maximal run of touched units of
     * a chunk, in ascending unit order. The run's pointers are valid
     * only during the call.
     */
    using RunVisitor = std::function<void(const Run &run)>;

    /**
     * Install the eviction handler, called with the touched runs of a
     * chunk about to be evicted.
     */
    void setEvictionHandler(RunVisitor handler);

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
        // A hot reader field tells a stamp from a run id by the tag.
        if (RunTable::isRun(id))
            fatal("shadow: reader stamp id %u reaches the run tag", id);
        return id;
    }

    const StampTable &stamps() const { return stamps_; }
    /// @}

    /** The pending re-use runs the hot reader fields name. */
    RunTable &runs() { return runs_; }
    const RunTable &runs() const { return runs_; }

    /**
     * Locate (creating if needed) the shadow state of a unit, marking
     * its chunk as most recently touched. May evict another chunk when
     * a memory limit is configured. want_cold charges the chunk its
     * cold array if it has none yet (see span()).
     */
    ShadowHot &lookup(std::uint64_t unit, bool want_cold = false);

    /**
     * Span-oriented lookup: visit the shadow state of every unit in
     * [first_unit, last_unit] as chunk-clamped contiguous runs,
     * resolving each chunk exactly once. Equivalent to calling
     * lookup() per unit (same touch ordering, same evictions and cold
     * charges) without the per-unit directory and recency work.
     * want_cold marks a read that tracks re-use runs or line totals:
     * it charges each chunk it enters a cold array on the first such
     * read, and in line mode allocates the chunk's access totals.
     * last_unit may be the very last unit of the address space.
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
            if (want_cold && !chunk.hasCold)
                chargeCold(chunk);
            fn(runAt(chunk, off, 1));
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
            if (want_cold && !chunk.hasCold)
                chargeCold(chunk);
            fn(runAt(chunk, off, n));
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
     * absent or its block was never touched (never constructed).
     */
    ShadowHot *find(std::uint64_t unit);

    /**
     * Checkpoint restore of one saved unit: touch it like lookup(),
     * but never evict, so re-populating exactly the saved chunk set
     * (which already respects the limit) cannot perturb it, and
     * return its one-unit run. has_cold charges the chunk its cold
     * array (and in line mode allocates its access totals). Units must
     * be restored in saved (recency) order.
     */
    Run restoreUnit(std::uint64_t unit, bool has_cold);

    /**
     * Visit every touched shadow object as maximal runs. Chunks are
     * visited in ascending base order so the sweep is deterministic
     * run-to-run.
     */
    void forEach(const RunVisitor &visitor);

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

    /** Statistics, with the run table's record counts. */
    ShadowStats
    stats() const
    {
        ShadowStats s = stats_;
        s.runsLive = runs_.live();
        s.runsPeak = runs_.peak();
        return s;
    }

    /**
     * Overwrite the cumulative statistics (checkpoint restore). The
     * live-chunk count, cold-array count and live bytes are re-derived
     * from the directory and stamp table, and the run counts from the
     * run table; the byte peak is clamped up to the re-derived live
     * figure.
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

    /**
     * Bytes charged for one chunk's cold array: the paper's per-unit
     * re-use record (first and last read tick, line access total, read
     * count; 32 bytes padded). A charge, not an allocation: runs live
     * in the RunTable.
     */
    static constexpr std::size_t
    chunkColdBytes()
    {
        return kChunkUnits * 32;
    }

    /** Current host bytes held (chunks + stamp table share). */
    std::uint64_t liveBytes() const { return stats_.bytesLive; }

    /** Peak host bytes ever held. */
    std::uint64_t peakBytes() const { return stats_.bytesPeak; }

  private:
    /**
     * Returns a hot array to the process-wide slot pool it came from
     * (no destructors run).
     */
    struct SlotRelease
    {
        void operator()(ShadowHot *p) const;
    };

    struct Chunk
    {
        std::uint64_t base = 0; // first unit index covered
        std::uint64_t index = 0;
        /** Blocks are constructed as the touched map marks them. */
        std::unique_ptr<ShadowHot[], SlotRelease> hot;
        /** Line mode: per-unit access totals, from the cold charge on. */
        std::unique_ptr<std::uint64_t[]> totals;
        /**
         * Bit per unit: ever returned via lookup()/span(). A zero word
         * means its 64-unit block of hot entries has not been
         * constructed yet.
         */
        std::uint64_t touched[kTouchedWords] = {};
        /** Charged a cold array (chunkColdBytes()). */
        bool hasCold = false;
        /** Intrusive recency list; head = oldest, tail = newest. */
        Chunk *lruPrev = nullptr;
        Chunk *lruNext = nullptr;
    };

    Chunk &chunkFor(std::uint64_t unit);

    /** Charge a chunk its cold array; line mode allocates its totals. */
    void chargeCold(Chunk &chunk);

    /** Units [off, off + n) of a chunk as a Run. */
    static Run
    runAt(Chunk &chunk, std::size_t off, std::size_t n)
    {
        return Run{chunk.base + off, n, chunk.hot.get() + off,
                   chunk.totals ? chunk.totals.get() + off : nullptr};
    }

    void evictOldest();
    void evictChunkPtr(Chunk *chunk);

    void lruUnlink(Chunk *chunk);
    void lruAppend(Chunk *chunk);

    /**
     * The single owner of the touched-bit scan: every sweep — the
     * ascending walk, the per-chunk checkpoint walk, and the eviction
     * handler pass — visits a chunk's touched units through here, as
     * maximal runs of consecutive touched units.
     */
    static void visitTouched(Chunk &chunk, const RunVisitor &visitor);

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
    StampTable stamps_;
    RunTable runs_;
    ShadowStats stats_;
};

} // namespace sigil::shadow

#endif // SIGIL_SHADOW_SHADOW_MEMORY_HH
