#include "server/server.hh"

#include <cstdio>
#include <string_view>
#include <utility>

#include "core/profile_query.hh"
#include "support/logging.hh"
#include "support/serial.hh"
#include "support/table.hh"

namespace sigil::server {

/**
 * One response. A stored answer goes out as a view of the catalog's
 * text, which `answers` keeps alive past an eviction or unload;
 * anything rendered for this request lives in `text`.
 */
struct ProfileQueryServer::Reply
{
    std::uint8_t op = 0;
    std::string text;
    std::shared_ptr<const CatalogAnswers> answers;
    const std::string *stored = nullptr;

    std::string_view
    payload() const
    {
        return stored ? std::string_view(*stored) : std::string_view(text);
    }
};

ProfileQueryServer::ProfileQueryServer(ServerConfig config)
    : config_(std::move(config))
{
    if (config_.threads == 0)
        config_.threads = 1;
    catalog_ = std::make_unique<ProfileCatalog>(config_.memoryBudgetBytes);
}

ProfileQueryServer::~ProfileQueryServer()
{
    stop();
}

bool
ProfileQueryServer::start(std::string *err)
{
    if (running_.load()) {
        if (err)
            *err = "server already running";
        return false;
    }
    std::string local_err;
    unixListener_ = net::Listener::listenUnix(config_.unixPath,
                                              &local_err);
    if (!unixListener_.valid()) {
        if (err)
            *err = local_err;
        return false;
    }
    if (config_.tcpPort >= 0) {
        tcpListener_ = net::Listener::listenTcp(
            static_cast<std::uint16_t>(config_.tcpPort), &local_err);
        if (!tcpListener_.valid()) {
            unixListener_.closeNow();
            if (err)
                *err = local_err;
            return false;
        }
        tcpPort_ = tcpListener_.boundPort();
    }
    if (config_.stallTimeoutMs > 0)
        watchdog_ = std::make_unique<Watchdog>(config_.stallTimeoutMs);

    draining_ = false;
    stopRequested_.store(false);
    running_.store(true);
    unixAcceptThread_ =
        std::thread(&ProfileQueryServer::acceptLoop, this,
                    &unixListener_);
    if (tcpListener_.valid())
        tcpAcceptThread_ =
            std::thread(&ProfileQueryServer::acceptLoop, this,
                        &tcpListener_);
    workers_.reserve(config_.threads);
    for (unsigned i = 0; i < config_.threads; ++i)
        workers_.emplace_back(&ProfileQueryServer::workerLoop, this, i);
    return true;
}

void
ProfileQueryServer::requestDrain()
{
    {
        // stopRequested_ flips under mu_ so waitForShutdown() cannot
        // miss the transition between its predicate check and wait.
        std::lock_guard<std::mutex> lock(mu_);
        draining_ = true;
        stopRequested_.store(true);
    }
    cv_.notify_all();
    drainedCv_.notify_all();
    unixListener_.wake();
    tcpListener_.wake();
}

void
ProfileQueryServer::stop()
{
    std::lock_guard<std::mutex> stop_lock(stopMu_);
    if (!running_.load())
        return;
    requestDrain();
    if (unixAcceptThread_.joinable())
        unixAcceptThread_.join();
    if (tcpAcceptThread_.joinable())
        tcpAcceptThread_.join();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
    unixListener_.closeNow();
    tcpListener_.closeNow();
    watchdog_.reset();
    running_.store(false);
    drainedCv_.notify_all();
}

void
ProfileQueryServer::waitForShutdown()
{
    std::unique_lock<std::mutex> lock(mu_);
    drainedCv_.wait(lock, [this] { return stopRequested_.load(); });
}

void
ProfileQueryServer::acceptLoop(net::Listener *listener)
{
    for (;;) {
        net::Socket sock = listener->accept();
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_)
            return; // sock (if any) closes: no new work during drain
        if (!sock.valid())
            continue;
        accepted_.fetch_add(1, std::memory_order_relaxed);
        pending_.push_back(std::move(sock));
        cv_.notify_one();
    }
}

void
ProfileQueryServer::workerLoop(unsigned index)
{
    int wd_id = -1;
    if (watchdog_) {
        char name[32];
        std::snprintf(name, sizeof(name), "server-worker-%u", index);
        wd_id = watchdog_->registerEntity(name, [this] {
            char diag[96];
            std::snprintf(diag, sizeof(diag),
                          "requests served %llu, proto errors %llu",
                          static_cast<unsigned long long>(requests_.load()),
                          static_cast<unsigned long long>(
                              protoErrors_.load()));
            return std::string(diag);
        });
    }
    for (;;) {
        net::Socket sock;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] {
                return !pending_.empty() || draining_;
            });
            if (pending_.empty()) {
                // draining_ and nothing queued: the pool winds down.
                break;
            }
            sock = std::move(pending_.front());
            pending_.pop_front();
        }
        serveConnection(std::move(sock), wd_id);
    }
    if (watchdog_ && wd_id >= 0)
        watchdog_->unregisterEntity(wd_id);
}

void
ProfileQueryServer::serveConnection(net::Socket sock, int wd_id)
{
    sock.setTimeouts(config_.recvTimeoutMs, config_.sendTimeoutMs);
    std::string payload; // reused: one allocation per connection
    for (;;) {
        std::uint8_t op = 0;
        // Blocking for a request is idleness, not progress-stall: only
        // the dispatch below runs under the watchdog's busy window.
        net::FrameStatus st = net::recvFrame(sock, &op, &payload,
                                             config_.maxRequestFrame);
        if (st == net::FrameStatus::Eof)
            break;
        if (st == net::FrameStatus::Timeout) {
            // Slow-client eviction: the connection has been silent for
            // the whole receive window; reclaim the worker.
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        if (st != net::FrameStatus::Ok) {
            // The stream is desynchronized (bad length, torn frame,
            // CRC mismatch). Answer with a structured error — fuzzers
            // and broken clients deserve a diagnosis — then close;
            // nothing after a corrupt frame can be trusted.
            protoErrors_.fetch_add(1, std::memory_order_relaxed);
            ByteSink err;
            err.u8(static_cast<std::uint8_t>(ErrCode::BadFrame));
            err.str(std::string("bad request frame: ") +
                    net::frameStatusName(st));
            net::sendFrame(sock,
                           static_cast<std::uint8_t>(Op::RespError),
                           err.bytes(), kMaxResponseFrame);
            break;
        }

        if (watchdog_ && wd_id >= 0)
            watchdog_->busy(wd_id);
        Reply reply;
        bool drain = false;
        dispatch(op, payload, &reply, &drain);
        if (watchdog_ && wd_id >= 0)
            watchdog_->idle(wd_id);

        requests_.fetch_add(1, std::memory_order_relaxed);
        net::IoStatus sent = net::sendFrame(sock, reply.op, reply.payload(),
                                            kMaxResponseFrame);
        if (sent == net::IoStatus::TooBig) {
            // Nothing was written, so the stream is still in sync:
            // answer with the reason instead.
            protoErrors_.fetch_add(1, std::memory_order_relaxed);
            ByteSink err;
            err.u8(static_cast<std::uint8_t>(ErrCode::Internal));
            err.str(strformat(
                "response frame of %zu bytes exceeds the cap of %u bytes",
                reply.payload().size() + 5, kMaxResponseFrame));
            sent = net::sendFrame(sock,
                                  static_cast<std::uint8_t>(Op::RespError),
                                  err.bytes(), kMaxResponseFrame);
        }
        if (sent == net::IoStatus::Timeout)
            timeouts_.fetch_add(1, std::memory_order_relaxed);
        if (sent != net::IoStatus::Ok)
            break;
        if (drain) {
            requestDrain();
            break;
        }
        if (stopRequested_.load()) {
            // Drain: the response above was flushed; no new requests.
            break;
        }
    }
}

void
ProfileQueryServer::dispatch(std::uint8_t op, const std::string &payload,
                             Reply *reply, bool *drain)
{
    auto error = [&](ErrCode code, const std::string &msg) {
        ByteSink sink;
        sink.u8(static_cast<std::uint8_t>(code));
        sink.str(msg);
        reply->op = static_cast<std::uint8_t>(Op::RespError);
        reply->text = sink.take();
        protoErrors_.fetch_add(1, std::memory_order_relaxed);
    };
    auto text = [&](std::string body) {
        reply->op = static_cast<std::uint8_t>(Op::RespText);
        reply->text = std::move(body);
    };
    auto answersFor = [&](const std::string &name,
                          std::shared_ptr<const CatalogAnswers> *out) {
        *out = catalog_->find(name);
        if (!*out) {
            error(ErrCode::NotFound,
                  "no loaded trace named '" + name + "'");
            return false;
        }
        return true;
    };
    // Answer with text stored in `a`; the reply keeps `a` alive.
    auto stored = [&](const std::shared_ptr<const CatalogAnswers> &a,
                      const std::string &answer) {
        reply->op = static_cast<std::uint8_t>(Op::RespText);
        reply->answers = a;
        reply->stored = &answer;
    };

    ByteSource src(payload);
    switch (static_cast<Op>(op)) {
    case Op::Ping: {
        if (!payload.empty())
            return error(ErrCode::BadRequest,
                         "ping carries no payload");
        char buf[64];
        std::snprintf(buf, sizeof(buf), "sigild protocol %u\n",
                      kProtocolVersion);
        return text(buf);
    }
    case Op::Stats:
        return text(statsText());
    case Op::List: {
        std::string out;
        for (const std::string &name : catalog_->names())
            out += name + "\n";
        return text(std::move(out));
    }
    case Op::Profile: {
        std::string name = src.str();
        if (!src.atEnd())
            return error(ErrCode::BadRequest,
                         "profile expects (name)");
        std::shared_ptr<const CatalogAnswers> a;
        if (!answersFor(name, &a))
            return;
        return stored(a, a->profileText);
    }
    case Op::Function: {
        std::string name = src.str();
        std::string fn = src.str();
        if (!src.atEnd())
            return error(ErrCode::BadRequest,
                         "function expects (name, fn_name)");
        std::shared_ptr<const CatalogAnswers> a;
        if (!answersFor(name, &a))
            return;
        if (const std::string *known = a->function(fn))
            return stored(a, *known);
        // No row has this name: the renderer's short "no context
        // matches" answer.
        return text(core::functionQueryText(a->profile, fn));
    }
    case Op::Edges: {
        std::string name = src.str();
        if (!src.atEnd())
            return error(ErrCode::BadRequest, "edges expects (name)");
        std::shared_ptr<const CatalogAnswers> a;
        if (!answersFor(name, &a))
            return;
        return stored(a, a->edgesText);
    }
    case Op::Summary: {
        std::string name = src.str();
        if (!src.atEnd())
            return error(ErrCode::BadRequest,
                         "summary expects (name)");
        std::shared_ptr<const CatalogAnswers> a;
        if (!answersFor(name, &a))
            return;
        return stored(a, a->summaryText);
    }
    case Op::Diff: {
        std::string name_a = src.str();
        std::string name_b = src.str();
        if (!src.atEnd())
            return error(ErrCode::BadRequest,
                         "diff expects (name_a, name_b)");
        std::shared_ptr<const CatalogAnswers> a, b;
        if (!answersFor(name_a, &a) || !answersFor(name_b, &b))
            return;
        return text(core::diffQueryText(a->profile, b->profile));
    }
    case Op::Partition: {
        std::string name = src.str();
        if (!src.atEnd())
            return error(ErrCode::BadRequest,
                         "partition expects (name)");
        std::shared_ptr<const CatalogAnswers> a;
        if (!answersFor(name, &a))
            return;
        return stored(a, a->partitionText);
    }
    case Op::Load: {
        std::string name = src.str();
        std::string path = src.str();
        if (!src.atEnd())
            return error(ErrCode::BadRequest,
                         "load expects (name, path)");
        if (stopRequested_.load())
            return error(ErrCode::ShuttingDown,
                         "server is draining");
        LoadStatus status = catalog_->load(name, path);
        if (!status.ok)
            return error(ErrCode::LoadFailed, status.error);
        char buf[128];
        std::snprintf(buf, sizeof(buf), " (evicted %zu)\n",
                      status.evicted);
        return text("loaded " + name + ": " + status.summary +
                    (status.evicted > 0 ? buf : "\n"));
    }
    case Op::Unload: {
        std::string name = src.str();
        if (!src.atEnd())
            return error(ErrCode::BadRequest, "unload expects (name)");
        if (!catalog_->unload(name))
            return error(ErrCode::NotFound,
                         "no loaded trace named '" + name + "'");
        return text("unloaded " + name + "\n");
    }
    case Op::Shutdown: {
        if (!payload.empty())
            return error(ErrCode::BadRequest,
                         "shutdown carries no payload");
        *drain = true;
        return text("draining\n");
    }
    case Op::RespText:
    case Op::RespError:
        break; // response codes are not requests
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "unknown request op 0x%02x", op);
    error(ErrCode::UnknownOp, buf);
}

std::string
ProfileQueryServer::statsText() const
{
    char head[256];
    std::snprintf(head, sizeof(head),
                  "sigild: %u worker%s, %llu connection%s, "
                  "%llu request%s, %llu protocol error%s, "
                  "%llu timeout%s, %llu stall%s\n",
                  config_.threads, config_.threads == 1 ? "" : "s",
                  static_cast<unsigned long long>(accepted_.load()),
                  accepted_.load() == 1 ? "" : "s",
                  static_cast<unsigned long long>(requests_.load()),
                  requests_.load() == 1 ? "" : "s",
                  static_cast<unsigned long long>(protoErrors_.load()),
                  protoErrors_.load() == 1 ? "" : "s",
                  static_cast<unsigned long long>(timeouts_.load()),
                  timeouts_.load() == 1 ? "" : "s",
                  static_cast<unsigned long long>(
                      watchdog_ ? watchdog_->stallsDetected() : 0),
                  (watchdog_ ? watchdog_->stallsDetected() : 0) == 1
                      ? ""
                      : "s");
    return std::string(head) + catalog_->statsText();
}

} // namespace sigil::server
