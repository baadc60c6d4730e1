#include "support/watchdog.hh"

#include <algorithm>
#include <cstdio>

#include "support/logging.hh"

namespace sigil {

std::string
StallReport::message() const
{
    char head[192];
    std::snprintf(head, sizeof(head),
                  "watchdog: '%s' made no progress for %u ms "
                  "(last heartbeat %llu)",
                  entity.c_str(), timeoutMs,
                  static_cast<unsigned long long>(lastBeat));
    std::string out = head;
    for (const auto &[name, diag] : diagnostics) {
        out += "\n  ";
        out += name;
        out += ": ";
        out += diag;
    }
    return out;
}

Watchdog::Watchdog(unsigned timeout_ms) : timeoutMs_(timeout_ms)
{
    SIGIL_ASSERT(timeout_ms > 0, "watchdog deadline must be non-zero");
    thread_ = std::thread([this] { monitor(); });
}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

int
Watchdog::registerEntity(std::string name, DiagFn diag)
{
    std::lock_guard<std::mutex> lock(mu_);
    int id = count_.load(std::memory_order_relaxed);
    if (id >= kMaxEntities)
        fatal("Watchdog: entity limit (%d) exceeded", kMaxEntities);
    auto entity = std::make_unique<Entity>();
    entity->name = std::move(name);
    entity->diag = std::move(diag);
    slots_[id] = std::move(entity);
    count_.store(id + 1, std::memory_order_release);
    return id;
}

void
Watchdog::unregisterEntity(int id)
{
    std::lock_guard<std::mutex> lock(mu_);
    SIGIL_ASSERT(id >= 0 && id < count_.load(std::memory_order_relaxed),
                 "unknown watchdog entity id");
    slots_[id]->live.store(false, std::memory_order_relaxed);
    slots_[id]->busyFlag.store(false, std::memory_order_relaxed);
}

std::string
Watchdog::lastReportMessage() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lastMessage_;
}

void
Watchdog::fire(Entity &e, std::unique_lock<std::mutex> &lock)
{
    StallReport report;
    report.entity = e.name;
    report.timeoutMs = timeoutMs_;
    report.lastBeat = e.seenBeats;
    int n = count_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
        Entity &other = *slots_[i];
        if (!other.live.load(std::memory_order_relaxed) || !other.diag)
            continue;
        report.diagnostics.emplace_back(other.name, other.diag());
    }
    lastMessage_ = report.message();
    std::string message = lastMessage_;

    // Log without the lock: a slow log sink must not wedge
    // registration or heartbeat queries.
    lock.unlock();
    warn("%s", message.c_str());
    // Counted once the warning is out, so a caller that sees the
    // count also sees the warning.
    stalls_.fetch_add(1, std::memory_order_release);
    lock.lock();
}

void
Watchdog::monitor()
{
    using clock = std::chrono::steady_clock;
    const auto deadline = std::chrono::milliseconds(timeoutMs_);
    const auto tick = std::chrono::milliseconds(
        std::max<unsigned>(1, std::min<unsigned>(timeoutMs_ / 4, 250)));

    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        cv_.wait_for(lock, tick, [this] { return stop_; });
        if (stop_)
            break;
        const auto now = clock::now();
        int n = count_.load(std::memory_order_acquire);
        for (int i = 0; i < n; ++i) {
            Entity &e = *slots_[i];
            if (!e.live.load(std::memory_order_relaxed))
                continue;
            std::uint64_t beats = e.beats.load(std::memory_order_relaxed);
            bool busy = e.busyFlag.load(std::memory_order_relaxed);
            if (beats != e.seenBeats || !busy ||
                e.lastChange == clock::time_point{}) {
                e.seenBeats = beats;
                e.lastChange = now;
                e.flagged = false;
                continue;
            }
            if (!e.flagged && now - e.lastChange > deadline) {
                e.flagged = true;
                fire(e, lock);
                // fire() dropped the lock: re-read the slot count on
                // the next pass rather than trusting n.
                break;
            }
        }
    }
}

} // namespace sigil
