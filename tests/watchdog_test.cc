/**
 * @file
 * Stall watchdog suite: stall detection with structured diagnostics,
 * idle workers never flagged, one report per stall, re-arming after
 * recovery, the warning every stall logs, and a worker thread wedged
 * mid-work surfacing through the recorded report.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/logging.hh"
#include "support/watchdog.hh"

namespace sigil {
namespace {

/**
 * Captures warnings (the stall reports) for the lifetime of the
 * object. Declare it before the Watchdog, so the monitor thread starts
 * after the sink is installed and is joined before it is restored.
 */
class CapturedWarnings
{
  public:
    CapturedWarnings() : saved_(setLogSink(&capture))
    {
        std::lock_guard<std::mutex> lock(mu());
        store().clear();
    }
    ~CapturedWarnings() { setLogSink(saved_); }

    std::vector<std::string>
    messages() const
    {
        std::lock_guard<std::mutex> lock(mu());
        return store();
    }

  private:
    static std::mutex &
    mu()
    {
        static std::mutex m;
        return m;
    }

    static std::vector<std::string> &
    store()
    {
        static std::vector<std::string> s;
        return s;
    }

    static void
    capture(LogLevel level, const std::string &msg)
    {
        if (level != LogLevel::Warn)
            return;
        std::lock_guard<std::mutex> lock(mu());
        store().push_back(msg);
    }

    LogSink saved_;
};

/** Poll until the watchdog has reported a stall or ~limit_ms passed. */
void
waitForStall(const Watchdog &dog, int limit_ms)
{
    for (int i = 0; i < limit_ms / 10 && dog.stallsDetected() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

TEST(WatchdogUnit, BusyWithoutProgressFires)
{
    CapturedWarnings warnings;
    Watchdog dog(40);
    std::atomic<std::uint64_t> work{7};
    int wedged = dog.registerEntity("wedged-worker", [&] {
        return "items=" +
               std::to_string(work.load(std::memory_order_relaxed));
    });
    int parked = dog.registerEntity("parked-worker");
    dog.idle(parked); // blocking for input: never a stall
    dog.busy(wedged); // ... and never beats again

    waitForStall(dog, 1000);
    ASSERT_GE(dog.stallsDetected(), 1u);
    const std::string msg = dog.lastReportMessage();
    // The stalled entity and the deadline head the report; the idle
    // entity is never the one flagged.
    EXPECT_EQ(msg.rfind("watchdog: 'wedged-worker' made no progress for "
                        "40 ms",
                        0),
              0u)
        << msg;
    EXPECT_EQ(msg.find("'parked-worker'"), std::string::npos) << msg;
    // Diagnostics cover every entity that provides one.
    EXPECT_NE(msg.find("\n  wedged-worker: items=7"), std::string::npos)
        << msg;

    // A transient stall is reported once, then re-arms on progress.
    std::uint64_t before = dog.stallsDetected();
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(dog.stallsDetected(), before);
    dog.beat(wedged);
    dog.idle(wedged);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(dog.stallsDetected(), before);

    dog.unregisterEntity(wedged);
    dog.unregisterEntity(parked);
}

TEST(WatchdogUnit, DegradeActionWarnsWithoutHandler)
{
    CapturedWarnings warnings;
    Watchdog dog(30);
    int id = dog.registerEntity("soft-worker");
    dog.busy(id);
    waitForStall(dog, 1000);
    ASSERT_GE(dog.stallsDetected(), 1u);
    dog.unregisterEntity(id);

    // Every stall is logged as a warning carrying the full report,
    // and the watchdog keeps running.
    std::vector<std::string> logged = warnings.messages();
    ASSERT_FALSE(logged.empty());
    EXPECT_EQ(logged.front(), dog.lastReportMessage());
    EXPECT_NE(logged.front().find("'soft-worker'"), std::string::npos);
}

TEST(WatchdogUnit, WedgedThreadReachesStallHandlerWithDiagnostics)
{
    CapturedWarnings warnings;
    Watchdog dog(60);
    std::atomic<std::uint64_t> drained{0};
    int id = dog.registerEntity("wedged-thread", [&] {
        return "batches drained=" +
               std::to_string(drained.load(std::memory_order_relaxed));
    });
    std::atomic<bool> release{false};
    std::thread worker([&] {
        dog.busy(id);
        drained.fetch_add(1, std::memory_order_relaxed);
        dog.beat(id);
        // Wedged: busy, and no heartbeat until released.
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        dog.beat(id);
        dog.idle(id);
    });
    waitForStall(dog, 3000);
    release.store(true, std::memory_order_release);
    worker.join();
    dog.unregisterEntity(id);

    EXPECT_GE(dog.stallsDetected(), 1u);
    const std::string msg = dog.lastReportMessage();
    EXPECT_NE(msg.find("'wedged-thread'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("batches drained=1"), std::string::npos) << msg;
}

} // namespace
} // namespace sigil
