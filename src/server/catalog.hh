/**
 * @file
 * Budgeted in-memory catalog of loaded profiles and their rendered
 * answers.
 *
 * The catalog decouples the expensive part of the paper's pipeline
 * (replaying a trace through the full profiler stack) from the cheap
 * part (answering queries over the resulting aggregate profile): each
 * trace is replayed exactly once at load time — salvage policy, so
 * crash captures load too. The load then renders every whole-profile
 * answer (profile, summary, edges, partition, and the function answer
 * of each function name in the rows) with the canonical renderers,
 * once, and publishes them with the profile as one immutable
 * CatalogAnswers. Any number of concurrent readers then share it
 * without locking beyond a catalog-map mutex; a request sends the
 * stored bytes instead of rendering them again.
 *
 * Each resident entry is charged its profile's estimate plus its
 * stored answer bytes against the catalog's byte budget. When a load
 * pushes the live total over the budget the catalog evicts
 * least-recently-queried entries (never the one being loaded) until
 * it fits again — the LRU policy the shadow's chunk limit applies,
 * one level up. A budget of 0 never evicts.
 */

#ifndef SIGIL_SERVER_CATALOG_HH
#define SIGIL_SERVER_CATALOG_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/profile.hh"
#include "vg/trace_error.hh"

namespace sigil::server {

/**
 * hw/sw partition rendering (paper eq. 1 candidates) for one loaded
 * profile. Lives in the server layer — not core/profile_query — so
 * sigil_core does not grow a dependency on sigil_cdfg.
 */
std::string partitionQueryText(const core::SigilProfile &profile);

/**
 * One loaded trace: its profile and every answer that depends on the
 * profile alone, rendered once at load by the canonical renderers.
 * Immutable once published; requests that need more than one profile
 * (diff) or a function name no row carries render from `profile`.
 */
struct CatalogAnswers
{
    core::SigilProfile profile;
    std::string profileText;   ///< core::profileQueryText
    std::string summaryText;   ///< core::summaryQueryText, default top_n
    std::string edgesText;     ///< core::edgesQueryText
    std::string partitionText; ///< server::partitionQueryText
    /** core::functionQueryText per distinct SigilRow::fnName. */
    std::unordered_map<std::string, std::string> functionText;

    /** Render every answer of `p`. */
    explicit CatalogAnswers(core::SigilProfile p);

    /** Stored function answer; null when no row has that name. */
    const std::string *function(const std::string &fn_name) const;

    /** Bytes of stored answer text, function-name keys included. */
    std::uint64_t textBytes() const;
};

/** Outcome of one load request. */
struct LoadStatus
{
    bool ok = false;
    /** TraceError-derived message when the replay failed. */
    std::string error;
    /** One-line replay summary (events, salvage accounting). */
    std::string summary;
    /** Entries evicted to fit this load under the budget. */
    std::size_t evicted = 0;
};

class ProfileCatalog
{
  public:
    /** budget_bytes == 0: never evicts (live/peak are still kept). */
    explicit ProfileCatalog(std::size_t budget_bytes);

    ProfileCatalog(const ProfileCatalog &) = delete;
    ProfileCatalog &operator=(const ProfileCatalog &) = delete;

    /**
     * Replay the trace at path and store its profile under name.
     * Replaces an existing entry of the same name. Thread-safe; the
     * replay itself runs outside the catalog lock, so queries keep
     * flowing while a load is in progress.
     */
    LoadStatus load(const std::string &name, const std::string &path);

    /** Drop one entry; false when no such name. */
    bool unload(const std::string &name);

    /**
     * Answers by name, bumping the entry's LRU stamp; null when
     * absent. They are immutable and outlive eviction (shared
     * ownership), so an in-flight query never races an unload.
     */
    std::shared_ptr<const CatalogAnswers> find(const std::string &name);

    /**
     * Bytes charged against the budget for one entry (profile
     * estimate plus stored answers); 0 when absent. Does not touch
     * the LRU.
     */
    std::uint64_t entryBytes(const std::string &name) const;

    /** Loaded names, most recently used first. */
    std::vector<std::string> names() const;

    /**
     * One line per entry (name, bytes, hits, replay summary), then
     * "memory: live N B (peak N B, budget N B)".
     */
    std::string statsText() const;

    std::uint64_t evictions() const;
    std::size_t size() const;

  private:
    struct Entry
    {
        std::string name;
        std::string path;
        std::shared_ptr<const CatalogAnswers> answers;
        std::string replaySummary;
        std::uint64_t bytes = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t hits = 0;
    };

    /** Evict LRU entries until the budget fits; keeps `keep`. */
    std::size_t evictOverBudgetLocked(const std::string &keep);

    const std::size_t budget_;

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
    /** Sum of entries_' bytes, and its high-water mark. */
    std::uint64_t liveBytes_ = 0;
    std::uint64_t peakBytes_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace sigil::server

#endif // SIGIL_SERVER_CATALOG_HH
