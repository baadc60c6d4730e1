#include "server/catalog.hh"

#include <algorithm>
#include <utility>

#include "cdfg/cdfg.hh"
#include "cdfg/partitioner.hh"
#include "core/profile_query.hh"
#include "core/sigil_profiler.hh"
#include "support/table.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

namespace sigil::server {

std::string
partitionQueryText(const core::SigilProfile &profile)
{
    cdfg::Cdfg graph = cdfg::Cdfg::build(profile);
    cdfg::PartitionResult parts = cdfg::Partitioner().partition(graph);
    std::string out;
    appendf(out,
            "partition: %zu candidate%s, %.1f%% coverage, "
            "%zu non-viable\n",
            parts.candidates.size(),
            parts.candidates.size() == 1 ? "" : "s",
            100.0 * parts.coverage, parts.nonViable);
    for (const cdfg::Candidate &c : parts.candidates) {
        appendf(out,
                "  %-32s S_be %.3f cover %.2f%% in %llu B "
                "out %llu B\n",
                c.displayName.c_str(), c.breakevenSpeedup,
                100.0 * c.coverage,
                static_cast<unsigned long long>(c.boundaryInBytes),
                static_cast<unsigned long long>(c.boundaryOutBytes));
    }
    return out;
}

CatalogAnswers::CatalogAnswers(core::SigilProfile p)
    : profile(std::move(p)),
      profileText(core::profileQueryText(profile)),
      summaryText(core::summaryQueryText(profile)),
      edgesText(core::edgesQueryText(profile)),
      partitionText(partitionQueryText(profile))
{
    for (const core::SigilRow &row : profile.rows) {
        if (functionText.count(row.fnName) == 0)
            functionText.emplace(
                row.fnName, core::functionQueryText(profile, row.fnName));
    }
}

const std::string *
CatalogAnswers::function(const std::string &fn_name) const
{
    auto it = functionText.find(fn_name);
    return it == functionText.end() ? nullptr : &it->second;
}

std::uint64_t
CatalogAnswers::textBytes() const
{
    std::uint64_t bytes = profileText.size() + summaryText.size() +
                          edgesText.size() + partitionText.size();
    for (const auto &[fn, text] : functionText)
        bytes += fn.size() + text.size();
    return bytes;
}

ProfileCatalog::ProfileCatalog(std::size_t budget_bytes)
    : budget_(budget_bytes)
{
}

LoadStatus
ProfileCatalog::load(const std::string &name, const std::string &path)
{
    LoadStatus status;
    if (name.empty()) {
        status.error = "load: trace name must not be empty";
        return status;
    }

    // The replay runs outside the catalog lock: loading a big trace
    // must not stall queries against already-resident profiles.
    vg::Guest guest(name);
    core::SigilProfiler profiler{core::SigilConfig{}};
    guest.addTool(&profiler);

    vg::ReplayOptions ropt;
    ropt.policy = vg::ReplayPolicy::Salvage;
    vg::ReplayReport report = vg::replayTraceFile(path, guest, ropt);
    if (!report.ok()) {
        status.error = report.error->message();
        return status;
    }

    // Rendering, like the replay, stays outside the lock.
    Entry entry;
    entry.name = name;
    entry.path = path;
    entry.answers =
        std::make_shared<const CatalogAnswers>(profiler.takeProfile());
    entry.replaySummary = report.summary();
    entry.bytes = core::profileMemoryEstimate(entry.answers->profile) +
                  entry.answers->textBytes();

    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->name == name) {
            liveBytes_ -= it->bytes;
            entries_.erase(it);
            break;
        }
    }
    liveBytes_ += entry.bytes;
    peakBytes_ = std::max(peakBytes_, liveBytes_);
    entry.lastUse = ++tick_;
    status.summary = entry.replaySummary;
    entries_.push_back(std::move(entry));
    status.evicted = evictOverBudgetLocked(name);
    status.ok = true;
    return status;
}

bool
ProfileCatalog::unload(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->name == name) {
            liveBytes_ -= it->bytes;
            entries_.erase(it);
            return true;
        }
    }
    return false;
}

std::shared_ptr<const CatalogAnswers>
ProfileCatalog::find(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.lastUse = ++tick_;
            ++e.hits;
            return e.answers;
        }
    }
    return nullptr;
}

std::uint64_t
ProfileCatalog::entryBytes(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry &e : entries_) {
        if (e.name == name)
            return e.bytes;
    }
    return 0;
}

std::vector<std::string>
ProfileCatalog::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const Entry *> sorted;
    sorted.reserve(entries_.size());
    for (const Entry &e : entries_)
        sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) {
                  return a->lastUse > b->lastUse;
              });
    std::vector<std::string> out;
    out.reserve(sorted.size());
    for (const Entry *e : sorted)
        out.push_back(e->name);
    return out;
}

std::string
ProfileCatalog::statsText() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    appendf(out, "catalog: %zu trace%s, %llu eviction%s\n",
            entries_.size(), entries_.size() == 1 ? "" : "s",
            static_cast<unsigned long long>(evictions_),
            evictions_ == 1 ? "" : "s");
    for (const Entry &e : entries_) {
        appendf(out, "  %-16s %10llu B  %6llu hit%s  %s\n",
                e.name.c_str(), static_cast<unsigned long long>(e.bytes),
                static_cast<unsigned long long>(e.hits),
                e.hits == 1 ? "" : "s", e.replaySummary.c_str());
    }
    appendf(out, "  memory: live %llu B (peak %llu B, budget %zu B)\n",
            static_cast<unsigned long long>(liveBytes_),
            static_cast<unsigned long long>(peakBytes_), budget_);
    return out;
}

std::uint64_t
ProfileCatalog::evictions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

std::size_t
ProfileCatalog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

std::size_t
ProfileCatalog::evictOverBudgetLocked(const std::string &keep)
{
    if (budget_ == 0)
        return 0;
    std::size_t evicted = 0;
    while (liveBytes_ > budget_ && entries_.size() > 1) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->name == keep)
                continue;
            if (victim == entries_.end() ||
                it->lastUse < victim->lastUse)
                victim = it;
        }
        if (victim == entries_.end())
            break;
        liveBytes_ -= victim->bytes;
        entries_.erase(victim);
        ++evicted;
        ++evictions_;
    }
    return evicted;
}

} // namespace sigil::server
