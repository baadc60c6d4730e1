/**
 * @file
 * Resource-governance suite: the memory-budget governor and the stall
 * watchdog.
 *
 * Governor: exact reconciliation of the ledger against ShadowStats,
 * bit-identity of governed runs whose budget covers the natural peak,
 * the peak-bound contract of tight budgets (within budget plus at most
 * one chunk of slack, shedding LRU chunks before fidelity). Watchdog:
 * stall detection with structured diagnostics, idle workers never
 * flagged, re-arming after recovery, the Degrade action, and a worker
 * thread wedged mid-work surfacing through a custom stall handler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sigil_profiler.hh"
#include "core/profile_io.hh"
#include "shadow/shadow_memory.hh"
#include "support/logging.hh"
#include "support/mem_governor.hh"
#include "support/rng.hh"
#include "support/watchdog.hh"
#include "vg/guest.hh"

namespace sigil {
namespace {

/** Silence expected warnings (degradation, stall warns). */
class QuietLogs
{
  public:
    QuietLogs() : saved_(setLogSink(&swallow)) {}
    ~QuietLogs() { setLogSink(saved_); }

  private:
    static void
    swallow(LogLevel level, const std::string &msg)
    {
        if (level == LogLevel::Panic || level == LogLevel::Fatal)
            std::fprintf(stderr, "%s\n", msg.c_str());
    }
    LogSink saved_;
};

/**
 * Drive a workload whose footprint spans many shadow chunks, with
 * producer/consumer traffic so re-use and communication tracking
 * exercise the cold arrays too.
 */
void
driveWideWorkload(vg::Guest &g, std::uint64_t seed, int steps)
{
    Rng rng(seed);
    const char *fns[] = {"alpha", "beta", "gamma", "delta"};
    g.enter("main");
    for (int i = 0; i < steps; ++i) {
        vg::Addr addr = vg::kHeapBase + rng.nextBounded(1u << 26);
        unsigned size = 1 + static_cast<unsigned>(rng.nextBounded(128));
        switch (rng.nextBounded(8)) {
        case 0:
            if (g.callDepth() < 5)
                g.enter(fns[rng.nextBounded(4)]);
            break;
        case 1:
            if (g.callDepth() > 1)
                g.leave();
            break;
        case 2:
            g.iop(1 + rng.nextBounded(20));
            break;
        case 3:
        case 4:
        case 5:
            g.write(addr, size);
            break;
        default:
            g.read(addr, size);
            break;
        }
    }
    while (g.callDepth() > 0)
        g.leave();
    g.finish();
}

struct GovernedRun
{
    std::string profile;
    std::size_t shadowPeak = 0;
    std::size_t totalPeak = 0;
    std::uint64_t evictions = 0;
    int degradation = 0;
};

GovernedRun
runGoverned(std::uint64_t seed, int steps, std::size_t budget)
{
    QuietLogs quiet;
    vg::GuestConfig gc;
    gc.memoryBudgetBytes = budget;
    vg::Guest g("governed", gc);
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    driveWideWorkload(g, seed, steps);

    GovernedRun out;
    const MemoryGovernor *gov = g.governor();
    out.shadowPeak = gov->peakBytes(MemCategory::Shadow);
    out.totalPeak = gov->peakBytes();
    out.evictions = prof.shadowStats().evictions;
    out.degradation = prof.degradationLevel();
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    out.profile = pos.str();
    return out;
}

// ---------------------------------------------------------------------
// Memory governor
// ---------------------------------------------------------------------

TEST(MemoryGovernor, LedgerBasics)
{
    MemoryGovernor gov(1000);
    EXPECT_FALSE(gov.overBudget());
    gov.charge(MemCategory::Shadow, 600);
    gov.charge(MemCategory::ProfileCatalog, 300);
    EXPECT_EQ(gov.liveBytes(), 900u);
    EXPECT_FALSE(gov.overBudget());
    EXPECT_TRUE(gov.overBudget(200)); // headroom would exceed
    gov.release(MemCategory::Shadow, 600);
    EXPECT_EQ(gov.liveBytes(MemCategory::Shadow), 0u);
    EXPECT_EQ(gov.peakBytes(MemCategory::Shadow), 600u);
    EXPECT_EQ(gov.peakBytes(), 900u);
    gov.release(MemCategory::ProfileCatalog, 300);
    EXPECT_EQ(gov.liveBytes(), 0u);

    std::string text = gov.describe();
    EXPECT_NE(text.find("budget 1000 B"), std::string::npos);
    EXPECT_NE(text.find("shadow"), std::string::npos);

    // Track-only mode never reports over budget.
    MemoryGovernor track(0);
    track.charge(MemCategory::Shadow, std::size_t{1} << 40);
    EXPECT_FALSE(track.overBudget());
}

TEST(MemoryGovernor, LedgerReconcilesWithShadowStats)
{
    vg::Guest g("reconcile");
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    driveWideWorkload(g, 301, 20000);

    shadow::ShadowStats stats = prof.shadowStats();
    const MemoryGovernor *gov = g.governor();
    ASSERT_GT(stats.bytesLive, 0u);
    EXPECT_EQ(gov->liveBytes(MemCategory::Shadow), stats.bytesLive);
    EXPECT_EQ(gov->peakBytes(MemCategory::Shadow), stats.bytesPeak);
}

TEST(MemoryGovernor, AmpleBudgetIsBitIdenticalToUngoverned)
{
    GovernedRun free_run = runGoverned(302, 15000, 0);
    ASSERT_GT(free_run.profile.size(), 100u);
    EXPECT_EQ(free_run.evictions, 0u);
    ASSERT_GT(free_run.totalPeak, 0u);

    // Exactly the natural peak: never over budget, nothing evicted.
    GovernedRun capped = runGoverned(302, 15000, free_run.totalPeak);
    EXPECT_EQ(capped.evictions, 0u);
    EXPECT_EQ(capped.degradation, 0);
    EXPECT_EQ(capped.profile, free_run.profile);
    EXPECT_EQ(capped.totalPeak, free_run.totalPeak);
}

TEST(MemoryGovernor, TightBudgetBoundsPeakByOneChunk)
{
    GovernedRun free_run = runGoverned(303, 15000, 0);
    std::size_t one_chunk = shadow::ShadowMemory::chunkHotBytes() +
                            shadow::ShadowMemory::chunkColdBytes();
    std::size_t budget = free_run.totalPeak / 3;
    ASSERT_GT(budget, 2 * one_chunk)
        << "workload footprint too small for a meaningful budget";

    GovernedRun tight = runGoverned(303, 15000, budget);
    EXPECT_GT(tight.evictions, 0u); // pressure landed on the LRU first
    EXPECT_LE(tight.totalPeak, budget + one_chunk);
    ASSERT_GT(tight.profile.size(), 100u); // run completed, no OOM path
}

// ---------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------

TEST(WatchdogUnit, BusyWithoutProgressFires)
{
    Watchdog dog(40);
    std::mutex mu;
    std::vector<StallReport> reports;
    dog.setStallHandler([&](const StallReport &r) {
        std::lock_guard<std::mutex> lock(mu);
        reports.push_back(r);
    });
    std::atomic<std::uint64_t> work{7};
    int wedged = dog.registerEntity(
        "wedged-worker", Watchdog::StallAction::Fail, [&] {
            return "items=" +
                   std::to_string(work.load(std::memory_order_relaxed));
        });
    int parked = dog.registerEntity("parked-worker",
                                    Watchdog::StallAction::Fail);
    dog.idle(parked); // blocking for input: never a stall
    dog.busy(wedged); // ... and never beats again

    for (int i = 0; i < 100 && dog.stallsDetected() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_GE(dog.stallsDetected(), 1u);
    {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_FALSE(reports.empty());
        EXPECT_EQ(reports.front().entity, "wedged-worker");
        EXPECT_EQ(reports.front().timeoutMs, 40u);
        // Diagnostics cover every entity that provides one.
        bool saw_diag = false;
        for (const auto &d : reports.front().diagnostics)
            saw_diag |= d.first == "wedged-worker" && d.second == "items=7";
        EXPECT_TRUE(saw_diag);
    }
    EXPECT_NE(dog.lastReportMessage().find("wedged-worker"),
              std::string::npos);

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
    QuietLogs quiet;
    Watchdog dog(30);
    bool handler_ran = false;
    dog.setStallHandler(
        [&](const StallReport &) { handler_ran = true; });
    int id = dog.registerEntity("soft-worker",
                                Watchdog::StallAction::Degrade);
    dog.busy(id);
    for (int i = 0; i < 100 && dog.stallsDetected() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(dog.stallsDetected(), 1u);
    EXPECT_FALSE(handler_ran); // Degrade logs; the handler is Fail-only
    dog.unregisterEntity(id);
}

TEST(WatchdogUnit, WedgedThreadReachesStallHandlerWithDiagnostics)
{
    Watchdog dog(60);
    std::mutex mu;
    std::vector<std::string> messages;
    dog.setStallHandler([&](const StallReport &r) {
        std::lock_guard<std::mutex> lock(mu);
        messages.push_back(r.message());
    });
    std::atomic<std::uint64_t> drained{0};
    int id = dog.registerEntity(
        "wedged-thread", Watchdog::StallAction::Fail, [&] {
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
    for (int i = 0; i < 300 && dog.stallsDetected() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.store(true, std::memory_order_release);
    worker.join();
    dog.unregisterEntity(id);

    EXPECT_GE(dog.stallsDetected(), 1u);
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_FALSE(messages.empty());
    EXPECT_NE(messages.front().find("wedged-thread"), std::string::npos);
    EXPECT_NE(messages.front().find("batches drained=1"),
              std::string::npos);
}

} // namespace
} // namespace sigil
