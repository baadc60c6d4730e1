/**
 * @file
 * Process-wide memory-budget governor.
 *
 * Every subsystem that holds a non-trivial amount of heap — shadow
 * chunks (hot units, lazy cold arrays, stamp tables), event buffers,
 * the sigild profile catalog — charges its
 * allocations against one MemoryGovernor instance owned by the Guest.
 * The governor itself never frees anything: it is a ledger plus a
 * predicate. Subsystems that *can* shed memory (the shadow's chunk
 * LRU) consult overBudget() before growing and evict until the new
 * allocation fits; subsystems with fixed footprints (event buffers)
 * only account, so the eviction pressure lands where it is cheapest
 * to shed. When nothing evictable remains and the budget is still
 * exceeded, the shadow's pressure handler drives the profiler's
 * never-descending degradation ladder instead of OOM-ing.
 *
 * A budget of 0 (the default) disables enforcement: the ledger still
 * tracks live/peak bytes per category — useful for reconciliation
 * against ShadowStats — but overBudget() always answers false, so
 * ungoverned runs stay bit-identical to pre-governor behaviour.
 *
 * Thread safety: charge/release/overBudget are lock-free atomics and
 * may be called from any thread (the async analysis consumer, sigild
 * workers). Peaks are maintained with CAS-max loops, so the reported
 * peak is exact even under concurrent charging.
 */

#ifndef SIGIL_SUPPORT_MEM_GOVERNOR_HH
#define SIGIL_SUPPORT_MEM_GOVERNOR_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace sigil {

/** Accounting categories, one per governed subsystem. */
enum class MemCategory : unsigned {
    Shadow = 0,         ///< shadow chunks: hot units + cold arrays + stamps
    EventBuffers = 1,   ///< guest-side SoA event batches
    ProfileCatalog = 2, ///< daemon-resident profiles (sigild catalog)
    kCount = 3,
};

/** Human-readable category name ("shadow", "event-buffers", ...). */
const char *memCategoryName(MemCategory cat);

class MemoryGovernor
{
  public:
    /** budget_bytes == 0 means track-only: never reports over budget. */
    explicit MemoryGovernor(std::size_t budget_bytes = 0)
        : budget_(budget_bytes)
    {
    }

    MemoryGovernor(const MemoryGovernor &) = delete;
    MemoryGovernor &operator=(const MemoryGovernor &) = delete;

    std::size_t budget() const { return budget_; }

    /** Record `bytes` newly allocated under `cat`. */
    void charge(MemCategory cat, std::size_t bytes);

    /** Record `bytes` freed under `cat`. Must pair with charge(). */
    void release(MemCategory cat, std::size_t bytes);

    /**
     * Would an additional allocation of `headroom` bytes exceed the
     * budget? Always false when the budget is 0 (track-only mode).
     */
    bool overBudget(std::size_t headroom = 0) const
    {
        return budget_ != 0 && liveBytes() + headroom > budget_;
    }

    /** Live bytes currently charged under one category. */
    std::size_t liveBytes(MemCategory cat) const
    {
        return lanes_[index(cat)].live.load(std::memory_order_relaxed);
    }

    /** Peak bytes ever charged under one category. */
    std::size_t peakBytes(MemCategory cat) const
    {
        return lanes_[index(cat)].peak.load(std::memory_order_relaxed);
    }

    /** Live bytes summed over all categories. */
    std::size_t liveBytes() const
    {
        return totalLive_.load(std::memory_order_relaxed);
    }

    /** Peak of the all-category total (not the sum of lane peaks). */
    std::size_t peakBytes() const
    {
        return totalPeak_.load(std::memory_order_relaxed);
    }

    /**
     * One-line ledger snapshot for diagnostics:
     * "live 1234 B (peak 5678 B, budget 9999 B): shadow 1000 B, ...".
     */
    std::string describe() const;

  private:
    struct Lane
    {
        std::atomic<std::size_t> live{0};
        std::atomic<std::size_t> peak{0};
    };

    static unsigned index(MemCategory cat)
    {
        return static_cast<unsigned>(cat);
    }

    static void maxInto(std::atomic<std::size_t> &peak, std::size_t seen);

    const std::size_t budget_;
    Lane lanes_[static_cast<unsigned>(MemCategory::kCount)];
    std::atomic<std::size_t> totalLive_{0};
    std::atomic<std::size_t> totalPeak_{0};
};

} // namespace sigil

#endif // SIGIL_SUPPORT_MEM_GOVERNOR_HH
