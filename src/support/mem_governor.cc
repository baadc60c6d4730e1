#include "support/mem_governor.hh"

#include <cstdio>

#include "support/logging.hh"

namespace sigil {

const char *
memCategoryName(MemCategory cat)
{
    switch (cat) {
    case MemCategory::Shadow:
        return "shadow";
    case MemCategory::EventBuffers:
        return "event-buffers";
    case MemCategory::ProfileCatalog:
        return "profile-catalog";
    case MemCategory::kCount:
        break;
    }
    return "?";
}

void
MemoryGovernor::maxInto(std::atomic<std::size_t> &peak, std::size_t seen)
{
    std::size_t cur = peak.load(std::memory_order_relaxed);
    while (cur < seen &&
           !peak.compare_exchange_weak(cur, seen, std::memory_order_relaxed)) {
    }
}

void
MemoryGovernor::charge(MemCategory cat, std::size_t bytes)
{
    if (bytes == 0)
        return;
    Lane &lane = lanes_[index(cat)];
    std::size_t lane_live =
        lane.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    maxInto(lane.peak, lane_live);
    std::size_t total =
        totalLive_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    maxInto(totalPeak_, total);
}

void
MemoryGovernor::release(MemCategory cat, std::size_t bytes)
{
    if (bytes == 0)
        return;
    Lane &lane = lanes_[index(cat)];
    std::size_t prev = lane.live.fetch_sub(bytes, std::memory_order_relaxed);
    SIGIL_ASSERT(prev >= bytes, "governor lane released below zero");
    prev = totalLive_.fetch_sub(bytes, std::memory_order_relaxed);
    SIGIL_ASSERT(prev >= bytes, "governor total released below zero");
}

std::string
MemoryGovernor::describe() const
{
    char head[128];
    std::snprintf(head, sizeof(head),
                  "live %zu B (peak %zu B, budget %zu B):", liveBytes(),
                  peakBytes(), budget_);
    std::string out = head;
    for (unsigned i = 0; i < static_cast<unsigned>(MemCategory::kCount);
         ++i) {
        MemCategory cat = static_cast<MemCategory>(i);
        char lane[96];
        std::snprintf(lane, sizeof(lane), "%s %s %zu B", i == 0 ? "" : ",",
                      memCategoryName(cat), liveBytes(cat));
        out += lane;
    }
    return out;
}

} // namespace sigil
