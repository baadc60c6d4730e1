#include "server/catalog.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/profile_query.hh"
#include "core/sigil_profiler.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

namespace sigil::server {

ProfileCatalog::ProfileCatalog(std::shared_ptr<MemoryGovernor> governor)
    : governor_(std::move(governor))
{
}

ProfileCatalog::~ProfileCatalog()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (governor_) {
        for (const Entry &e : entries_)
            governor_->release(MemCategory::ProfileCatalog, e.bytes);
    }
    entries_.clear();
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
    vg::GuestConfig gcfg;
    gcfg.batchEvents = true;
    vg::Guest guest(name, gcfg);
    core::SigilProfiler profiler{core::SigilConfig{}};
    guest.addTool(&profiler);

    vg::ReplayOptions ropt;
    ropt.policy = vg::ReplayPolicy::Salvage;
    vg::ReplayReport report = vg::replayTraceFile(path, guest, ropt);
    if (!report.ok()) {
        status.error = report.error->message();
        return status;
    }

    Entry entry;
    entry.name = name;
    entry.path = path;
    entry.profile = std::make_shared<const core::SigilProfile>(
        profiler.takeProfile());
    entry.replaySummary = report.summary();
    entry.bytes = core::profileMemoryEstimate(*entry.profile);

    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->name == name) {
            if (governor_)
                governor_->release(MemCategory::ProfileCatalog,
                                   it->bytes);
            entries_.erase(it);
            break;
        }
    }
    if (governor_)
        governor_->charge(MemCategory::ProfileCatalog, entry.bytes);
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
            if (governor_)
                governor_->release(MemCategory::ProfileCatalog,
                                   it->bytes);
            entries_.erase(it);
            return true;
        }
    }
    return false;
}

std::shared_ptr<const core::SigilProfile>
ProfileCatalog::find(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.lastUse = ++tick_;
            ++e.hits;
            return e.profile;
        }
    }
    return nullptr;
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
    char head[128];
    std::snprintf(head, sizeof(head),
                  "catalog: %zu trace%s, %llu eviction%s\n",
                  entries_.size(), entries_.size() == 1 ? "" : "s",
                  static_cast<unsigned long long>(evictions_),
                  evictions_ == 1 ? "" : "s");
    out += head;
    for (const Entry &e : entries_) {
        char line[512];
        std::snprintf(line, sizeof(line),
                      "  %-16s %10llu B  %6llu hit%s  %s\n",
                      e.name.c_str(),
                      static_cast<unsigned long long>(e.bytes),
                      static_cast<unsigned long long>(e.hits),
                      e.hits == 1 ? "" : "s", e.replaySummary.c_str());
        out += line;
    }
    if (governor_) {
        out += "  governor: " + governor_->describe() + "\n";
    }
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
    if (!governor_)
        return 0;
    std::size_t evicted = 0;
    while (governor_->overBudget() && entries_.size() > 1) {
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
        governor_->release(MemCategory::ProfileCatalog, victim->bytes);
        entries_.erase(victim);
        ++evicted;
        ++evictions_;
    }
    return evicted;
}

} // namespace sigil::server
