/**
 * @file
 * Stall watchdog for the parallel subsystems.
 *
 * Every long-lived worker thread — sigild's query workers, the only
 * ones in the system — registers itself as an entity and then reports
 * liveness with three cheap atomic operations: busy() when it picks up
 * work, beat() as it makes progress, idle() when it blocks waiting for
 * more. A monitor thread samples the heartbeats and flags any entity
 * that has been busy without advancing its beat counter for longer
 * than the configured deadline: a worker wedged inside its work, as
 * opposed to one parked on an empty queue (idle entities are never
 * flagged — blocking for input is not a stall).
 *
 * On a stall the monitor assembles a structured StallReport — the
 * stalled entity, the deadline, and a diagnostic line from every
 * registered entity (queue depths, last sequence numbers) — and then
 * either invokes the stall handler (StallAction::Fail — the default
 * handler calls fatal(), failing the run with the report instead of
 * hanging) or logs the report and keeps running (StallAction::Degrade
 * — used by sigild's query workers, where one slow request must not
 * take the daemon down). A flagged entity re-arms as soon as its beat
 * counter moves again, so transient stalls are reported once, not once
 * per monitor tick.
 *
 * The monitor runs at a fraction of the deadline, so detection
 * latency is between one and roughly 1.25 deadlines. Heartbeats are
 * relaxed atomics on pre-registered slots: the watchdog adds no
 * synchronization to worker fast paths.
 */

#ifndef SIGIL_SUPPORT_WATCHDOG_HH
#define SIGIL_SUPPORT_WATCHDOG_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sigil {

/** Structured description of one detected stall. */
struct StallReport
{
    /** Name of the entity that stopped making progress. */
    std::string entity;
    /** Deadline that was exceeded. */
    unsigned timeoutMs = 0;
    /** Heartbeat count at which the entity wedged. */
    std::uint64_t lastBeat = 0;
    /** One diagnostic line per registered entity that provides one. */
    std::vector<std::pair<std::string, std::string>> diagnostics;

    /** Render the report as a multi-line message. */
    std::string message() const;
};

class Watchdog
{
  public:
    enum class StallAction {
        Fail,    ///< invoke the stall handler (default: fatal())
        Degrade, ///< warn and keep monitoring; the entity self-recovers
    };

    /** Optional per-entity diagnostic snapshot, sampled on a stall.
     *  Called from the monitor thread: must only read atomics. */
    using DiagFn = std::function<std::string()>;
    using StallHandler = std::function<void(const StallReport &)>;

    /** Entities stalled for longer than timeout_ms are reported. */
    explicit Watchdog(unsigned timeout_ms);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    unsigned timeoutMs() const { return timeoutMs_; }

    /**
     * Register a worker. Returns a handle for beat()/busy()/idle().
     * Thread-safe; entities are monitored until unregisterEntity().
     */
    int registerEntity(std::string name, StallAction action,
                       DiagFn diag = nullptr);

    /** Stop monitoring an entity (its thread is exiting). */
    void unregisterEntity(int id);

    /** Progress heartbeat: call whenever the worker advances. */
    void beat(int id)
    {
        slots_[id]->beats.fetch_add(1, std::memory_order_relaxed);
    }

    /** Worker picked up work; stalls are detected only while busy. */
    void busy(int id)
    {
        Entity &e = *slots_[id];
        e.beats.fetch_add(1, std::memory_order_relaxed);
        e.busyFlag.store(true, std::memory_order_relaxed);
    }

    /** Worker is blocking for input; never flagged while idle. */
    void idle(int id)
    {
        Entity &e = *slots_[id];
        e.busyFlag.store(false, std::memory_order_relaxed);
        e.beats.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Replace the Fail-action handler. The default calls fatal() with
     * the report message. Runs on the monitor thread.
     */
    void setStallHandler(StallHandler handler);

    /**
     * Number of stalls detected so far (both actions), each counted
     * after its warning or handler has run: the handler's effects
     * happen before a load that sees its count.
     */
    std::uint64_t stallsDetected() const
    {
        return stalls_.load(std::memory_order_acquire);
    }

    /** Message of the most recent StallReport ("" if none). */
    std::string lastReportMessage() const;

  private:
    struct Entity
    {
        std::string name;
        StallAction action = StallAction::Fail;
        DiagFn diag;
        std::atomic<std::uint64_t> beats{0};
        std::atomic<bool> busyFlag{false};
        std::atomic<bool> live{true};

        // Monitor-thread-private scan state.
        std::uint64_t seenBeats = 0;
        std::chrono::steady_clock::time_point lastChange{};
        bool flagged = false;
    };

    /** Entity handles index a fixed slot array so heartbeats never
     *  touch a container the registration path might be growing. */
    static constexpr int kMaxEntities = 512;

    void monitor();
    void fire(Entity &e, std::unique_lock<std::mutex> &lock);

    const unsigned timeoutMs_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::unique_ptr<Entity> slots_[kMaxEntities];
    /** Slots below this are registered; release-published so the
     *  monitor sees a fully-constructed Entity. */
    std::atomic<int> count_{0};
    StallHandler handler_;
    std::string lastMessage_;
    std::atomic<std::uint64_t> stalls_{0};
    bool stop_ = false;
    std::thread thread_;
};

} // namespace sigil

#endif // SIGIL_SUPPORT_WATCHDOG_HH
