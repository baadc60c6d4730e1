/**
 * @file
 * Two-level data-cache simulator.
 *
 * Mirrors the on-the-fly cache simulation Callgrind performs while
 * profiling: a first-level data cache (D1) backed by a last-level cache
 * (LL), both set-associative with true-LRU replacement. The miss counts
 * feed the cycle-estimation formula of the cost model.
 */

#ifndef SIGIL_CG_CACHE_SIM_HH
#define SIGIL_CG_CACHE_SIM_HH

#include <cstdint>
#include <vector>

#include "vg/types.hh"

namespace sigil::cg {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes;
    unsigned associativity;
    unsigned lineBytes;
};

/**
 * One set-associative LRU cache level with write-back accounting.
 *
 * Each set is one packed array of `assoc` entries in recency order,
 * most recently used first. An entry is `tag << 1 | dirty`; kInvalid
 * (all ones) marks a way that holds no line, and invalid ways only
 * ever sit behind the valid ones. A hit moves its entry to the front;
 * a miss drops the last entry (the least recently used line, or an
 * invalid way while the set is not yet full) and inserts at the front.
 * That is true LRU: the order of the array is the order of the last
 * touches, so the victim is the same line the timestamp rule (invalid
 * ways first, then the oldest stamp) picks.
 */
class CacheLevel
{
  public:
    explicit CacheLevel(const CacheConfig &config);

    /**
     * Access one line (an address shifted right by log2(lineBytes()));
     * returns true on hit. Updates LRU state and the line's dirty bit
     * when is_write is set. On a miss that evicts a dirty line, a
     * write-back is counted and the victim's line number is
     * retrievable via lastWriteBackLine() until the next access.
     */
    bool accessLine(std::uint64_t line_number, bool is_write = false);

    /** Victim line of the most recent dirty eviction, or no value. */
    bool lastAccessWroteBack() const { return wroteBack_; }
    std::uint64_t lastWriteBackLine() const { return writeBackLine_; }

    /** Dirty lines written back on eviction so far. */
    std::uint64_t writeBacks() const { return writeBacks_; }

    /**
     * Account an access that the caller proved is a hit without
     * probing the set (the hierarchy's last-line filter). Counts like
     * accessLine() returning true but skips tag compare and LRU work.
     */
    void countFilteredHit() { ++accesses_; }

    unsigned lineBytes() const { return lineBytes_; }
    std::uint64_t numSets() const { return numSets_; }
    unsigned associativity() const { return assoc_; }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

  private:
    unsigned lineBytes_;
    unsigned lineShift_;
    unsigned assoc_;
    std::uint64_t numSets_;
    unsigned setShift_;
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
    /** sets_[set * assoc + rank]: `tag << 1 | dirty`, MRU first. */
    std::vector<std::uint64_t> sets_;
    bool wroteBack_ = false;
    std::uint64_t writeBackLine_ = 0;
    std::uint64_t writeBacks_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

/** Result of one memory access through the hierarchy. */
struct CacheAccessResult
{
    unsigned d1Misses = 0;
    unsigned llMisses = 0;
};

/**
 * The D1 + LL hierarchy. Accesses spanning multiple lines touch each
 * line once, as cachegrind does.
 *
 * A one-entry last-line filter short-circuits the common case of
 * consecutive accesses to the same D1 line (the same hoisting the
 * shadow-memory span path applies to chunk resolution): the previous
 * access left that line most-recently-used in its set, so a repeat
 * access cannot miss, cannot evict, and cannot change the relative LRU
 * order — the full probe is skipped and only the access counter moves.
 * Hit/miss/write-back statistics are bit-identical to the unfiltered
 * simulation.
 */
class CacheSim
{
  public:
    /** Default geometry: 32KiB/8-way D1, 8MiB/16-way LL, 64B lines. */
    CacheSim();
    CacheSim(const CacheConfig &d1, const CacheConfig &ll);

    /** Simulate a data access; returns miss counts incurred. */
    CacheAccessResult access(vg::Addr addr, unsigned size,
                             bool is_write = false);

    const CacheLevel &d1() const { return d1_; }
    const CacheLevel &ll() const { return ll_; }

  private:
    CacheLevel d1_;
    CacheLevel ll_;
    unsigned lineShift_;

    /** @name Last-line filter */
    /// @{
    bool haveLastLine_ = false;
    /** The line of the immediately preceding D1 access. */
    std::uint64_t lastLine_ = 0;
    /** Whether that line is known dirty (write already recorded). */
    bool lastLineDirty_ = false;
    /// @}
};

} // namespace sigil::cg

#endif // SIGIL_CG_CACHE_SIM_HH
