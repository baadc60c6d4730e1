/**
 * @file
 * sigild — the profile-query daemon (DESIGN.md §4.7).
 *
 * One accept thread per listener (Unix-domain always, loopback TCP
 * optionally) feeds accepted connections into a bounded queue drained
 * by a pool of worker threads. A worker owns one connection at a time
 * and runs its request→response loop: decode one CRC-framed request,
 * look up the answer the catalog rendered at load (only diff, stats,
 * list and unknown function names render per request), send one
 * response frame. Per-connection SO_RCVTIMEO/SO_SNDTIMEO deadlines
 * turn a stalled or malicious client into a closed connection instead
 * of a captured worker; a support/watchdog.hh stall watchdog monitors
 * the workers themselves, so a wedged request (not a slow client — a
 * bug) is reported rather than silently eating a pool slot.
 *
 * Shutdown (stop(), or the Op::Shutdown control request, or SIGTERM
 * in the sigild binary) is a drain: listeners stop accepting, queued
 * connections are answered, in-flight requests complete and their
 * responses are flushed, then the workers exit. No request that
 * reached the server is dropped without a response.
 */

#ifndef SIGIL_SERVER_SERVER_HH
#define SIGIL_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/catalog.hh"
#include "server/protocol.hh"
#include "support/socket.hh"
#include "support/watchdog.hh"

namespace sigil::server {

/** Everything a daemon instance needs to know at start(). */
struct ServerConfig
{
    /** Unix-domain socket path (required). */
    std::string unixPath;

    /** Loopback TCP port: -1 = off, 0 = ephemeral (see tcpPort()). */
    int tcpPort = -1;

    /** Worker threads — the concurrent-request capacity. */
    unsigned threads = 4;

    /** Per-connection receive/send deadlines, ms (0 = no deadline). */
    int recvTimeoutMs = 5000;
    int sendTimeoutMs = 5000;

    /** Request-frame size cap (responses use kMaxResponseFrame). */
    std::uint32_t maxRequestFrame = kMaxRequestFrame;

    /** Catalog memory budget, bytes; 0 = no budget (never evicts). */
    std::size_t memoryBudgetBytes = 0;

    /** Worker stall deadline for the watchdog; 0 disables it. */
    unsigned stallTimeoutMs = 30000;
};

class ProfileQueryServer
{
  public:
    explicit ProfileQueryServer(ServerConfig config);
    ~ProfileQueryServer();

    ProfileQueryServer(const ProfileQueryServer &) = delete;
    ProfileQueryServer &operator=(const ProfileQueryServer &) = delete;

    /** Bind, spawn accept + worker threads. False + *err on failure. */
    bool start(std::string *err);

    /**
     * Graceful drain: stop accepting, answer everything in flight,
     * join all threads. Idempotent; safe from any thread except a
     * worker (the Shutdown op instead signals and returns).
     */
    void stop();

    /** Block until stop() completes or a Shutdown request drained. */
    void waitForShutdown();

    bool running() const { return running_.load(); }

    /** Actual TCP port when configured with tcpPort = 0. */
    std::uint16_t tcpPort() const { return tcpPort_; }

    ProfileCatalog &catalog() { return *catalog_; }

    /** @name Counters (exposed in Op::Stats) */
    /// @{
    std::uint64_t connectionsAccepted() const { return accepted_.load(); }
    std::uint64_t requestsServed() const { return requests_.load(); }
    std::uint64_t protocolErrors() const { return protoErrors_.load(); }
    std::uint64_t timeouts() const { return timeouts_.load(); }
    /// @}

    /** The Op::Stats rendering (also usable in-process). */
    std::string statsText() const;

  private:
    /** One response: op plus owned or stored payload (server.cc). */
    struct Reply;

    void acceptLoop(net::Listener *listener);
    void workerLoop(unsigned index);
    void serveConnection(net::Socket sock, int watchdogId);

    /**
     * Decode + execute one request; fills the reply. Sets *drain when
     * the request asked for shutdown.
     */
    void dispatch(std::uint8_t op, const std::string &payload,
                  Reply *reply, bool *drain);

    void requestDrain();

    ServerConfig config_;
    std::unique_ptr<ProfileCatalog> catalog_;
    std::unique_ptr<Watchdog> watchdog_;

    net::Listener unixListener_;
    net::Listener tcpListener_;
    std::uint16_t tcpPort_ = 0;

    std::thread unixAcceptThread_;
    std::thread tcpAcceptThread_;
    std::vector<std::thread> workers_;

    /** Serializes stop() against concurrent callers (signal thread
     *  vs. main thread vs. destructor). */
    std::mutex stopMu_;

    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable drainedCv_;
    std::deque<net::Socket> pending_;
    bool draining_ = false;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};

    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> protoErrors_{0};
    std::atomic<std::uint64_t> timeouts_{0};
};

} // namespace sigil::server

#endif // SIGIL_SERVER_SERVER_HH
