#include "support/socket.hh"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/crc32c.hh"

namespace sigil::net {

namespace {

std::string
errnoMessage(const char *what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/**
 * Self-pipe for Listener::wake(). The read end must be non-blocking:
 * accept() drains it in a loop after a wakeup, and a blocking read
 * would park the accept thread forever once the pipe is empty.
 */
bool
makeWakePipe(int pipefd[2])
{
    if (::pipe(pipefd) != 0)
        return false;
    int flags = ::fcntl(pipefd[0], F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(pipefd[0], F_SETFL, flags | O_NONBLOCK);
    return true;
}

void
setTimeoutOpt(int fd, int optname, int ms)
{
    struct timeval tv;
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

std::uint32_t
loadLe32(const char *p)
{
    const auto *b = reinterpret_cast<const unsigned char *>(p);
    return static_cast<std::uint32_t>(b[0]) |
           static_cast<std::uint32_t>(b[1]) << 8 |
           static_cast<std::uint32_t>(b[2]) << 16 |
           static_cast<std::uint32_t>(b[3]) << 24;
}

void
storeLe32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

} // namespace

const char *
ioStatusName(IoStatus status)
{
    switch (status) {
    case IoStatus::Ok: return "ok";
    case IoStatus::Eof: return "eof";
    case IoStatus::Timeout: return "timeout";
    case IoStatus::TooBig: return "too-big";
    case IoStatus::Error: return "error";
    }
    return "?";
}

bool
Socket::setTimeouts(int recv_ms, int send_ms)
{
    if (fd_ < 0)
        return false;
    setTimeoutOpt(fd_, SO_RCVTIMEO, recv_ms);
    setTimeoutOpt(fd_, SO_SNDTIMEO, send_ms);
    return true;
}

IoStatus
Socket::fill(std::size_t n)
{
    if (tail_ - head_ >= n)
        return IoStatus::Ok;
    if (!buf_)
        buf_ = std::make_unique_for_overwrite<char[]>(kReadBufferBytes);
    if (head_ == tail_) {
        head_ = tail_ = 0;
    } else if (kReadBufferBytes - head_ < n) {
        std::memmove(buf_.get(), buf_.get() + head_, tail_ - head_);
        tail_ -= head_;
        head_ = 0;
    }
    while (tail_ - head_ < n) {
        ssize_t got =
            ::recv(fd_, buf_.get() + tail_, kReadBufferBytes - tail_, 0);
        if (got > 0) {
            tail_ += static_cast<std::size_t>(got);
            continue;
        }
        if (got == 0)
            return IoStatus::Eof;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return IoStatus::Timeout;
        return IoStatus::Error;
    }
    return IoStatus::Ok;
}

IoStatus
Socket::readFully(void *buf, std::size_t n)
{
    char *p = static_cast<char *>(buf);
    while (n > 0) {
        IoStatus st = fill(1);
        if (st != IoStatus::Ok)
            return st;
        std::size_t take = std::min(n, tail_ - head_);
        std::memcpy(p, buf_.get() + head_, take);
        head_ += take;
        p += take;
        n -= take;
    }
    return IoStatus::Ok;
}

IoStatus
Socket::writeFully(const void *buf, std::size_t n)
{
    const char *p = static_cast<const char *>(buf);
    while (n > 0) {
        // MSG_NOSIGNAL: a peer that closed mid-response must produce
        // EPIPE on this thread, not SIGPIPE for the whole process.
        ssize_t put = ::send(fd_, p, n, MSG_NOSIGNAL);
        if (put > 0) {
            p += put;
            n -= static_cast<std::size_t>(put);
            continue;
        }
        if (put < 0 && errno == EINTR)
            continue;
        if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return IoStatus::Timeout;
        return IoStatus::Error;
    }
    return IoStatus::Ok;
}

void
Socket::closeNow()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    head_ = tail_ = 0;
}

Socket
connectUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return Socket();
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return Socket();
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return Socket();
    }
    return Socket(fd);
}

Socket
connectTcp(const std::string &host, std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Socket();
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return Socket();
    }
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return Socket();
    }
    return Socket(fd);
}

Listener::~Listener()
{
    closeNow();
}

Listener::Listener(Listener &&other) noexcept
    : fd_(other.fd_), wakeRead_(other.wakeRead_),
      wakeWrite_(other.wakeWrite_), port_(other.port_),
      unixPath_(std::move(other.unixPath_))
{
    other.fd_ = other.wakeRead_ = other.wakeWrite_ = -1;
    other.port_ = 0;
    other.unixPath_.clear();
}

Listener &
Listener::operator=(Listener &&other) noexcept
{
    if (this != &other) {
        closeNow();
        fd_ = other.fd_;
        wakeRead_ = other.wakeRead_;
        wakeWrite_ = other.wakeWrite_;
        port_ = other.port_;
        unixPath_ = std::move(other.unixPath_);
        other.fd_ = other.wakeRead_ = other.wakeWrite_ = -1;
        other.port_ = 0;
        other.unixPath_.clear();
    }
    return *this;
}

Listener
Listener::listenUnix(const std::string &path, std::string *err)
{
    Listener l;
    struct sockaddr_un addr;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = "unix socket path empty or too long: " + path;
        return l;
    }
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = errnoMessage("socket(AF_UNIX)");
        return l;
    }
    ::unlink(path.c_str());
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        if (err)
            *err = errnoMessage(("bind/listen " + path).c_str());
        ::close(fd);
        return l;
    }
    int pipefd[2];
    if (!makeWakePipe(pipefd)) {
        if (err)
            *err = errnoMessage("pipe");
        ::close(fd);
        ::unlink(path.c_str());
        return l;
    }
    l.fd_ = fd;
    l.wakeRead_ = pipefd[0];
    l.wakeWrite_ = pipefd[1];
    l.unixPath_ = path;
    return l;
}

Listener
Listener::listenTcp(std::uint16_t port, std::string *err)
{
    Listener l;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = errnoMessage("socket(AF_INET)");
        return l;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        if (err)
            *err = errnoMessage("bind/listen tcp");
        ::close(fd);
        return l;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      &len) == 0)
        l.port_ = ntohs(addr.sin_port);
    int pipefd[2];
    if (!makeWakePipe(pipefd)) {
        if (err)
            *err = errnoMessage("pipe");
        ::close(fd);
        return Listener();
    }
    l.fd_ = fd;
    l.wakeRead_ = pipefd[0];
    l.wakeWrite_ = pipefd[1];
    return l;
}

Socket
Listener::accept()
{
    while (fd_ >= 0) {
        struct pollfd fds[2];
        fds[0].fd = fd_;
        fds[0].events = POLLIN;
        fds[0].revents = 0;
        fds[1].fd = wakeRead_;
        fds[1].events = POLLIN;
        fds[1].revents = 0;
        int n = ::poll(fds, 2, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Socket();
        }
        if (fds[1].revents != 0) {
            char drain[64];
            while (::read(wakeRead_, drain, sizeof(drain)) > 0) {}
            return Socket();
        }
        if (fds[0].revents != 0) {
            int cfd = ::accept(fd_, nullptr, nullptr);
            if (cfd >= 0)
                return Socket(cfd);
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return Socket();
        }
    }
    return Socket();
}

void
Listener::wake()
{
    if (wakeWrite_ >= 0) {
        char b = 1;
        // Best effort: a full pipe already guarantees a pending wake.
        [[maybe_unused]] ssize_t r = ::write(wakeWrite_, &b, 1);
    }
}

void
Listener::closeNow()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (wakeRead_ >= 0) {
        ::close(wakeRead_);
        wakeRead_ = -1;
    }
    if (wakeWrite_ >= 0) {
        ::close(wakeWrite_);
        wakeWrite_ = -1;
    }
    if (!unixPath_.empty()) {
        ::unlink(unixPath_.c_str());
        unixPath_.clear();
    }
}

const char *
frameStatusName(FrameStatus status)
{
    switch (status) {
    case FrameStatus::Ok: return "ok";
    case FrameStatus::Eof: return "eof";
    case FrameStatus::Timeout: return "timeout";
    case FrameStatus::TooBig: return "too-big";
    case FrameStatus::Malformed: return "malformed";
    case FrameStatus::BadCrc: return "bad-crc";
    case FrameStatus::Error: return "error";
    }
    return "?";
}

IoStatus
sendFrame(Socket &sock, std::uint8_t op, std::string_view payload,
          std::uint32_t max_len)
{
    if (payload.size() + 5 > max_len)
        return IoStatus::TooBig;
    std::uint32_t crc = crc32c(&op, 1);
    crc = crc32cExtend(crc, payload.data(), payload.size());
    unsigned char b[4];
    std::string frame;
    frame.reserve(4 + 1 + payload.size() + 4);
    storeLe32(b, static_cast<std::uint32_t>(1 + payload.size() + 4));
    frame.append(reinterpret_cast<const char *>(b), 4);
    frame.push_back(static_cast<char>(op));
    frame.append(payload);
    storeLe32(b, crc);
    frame.append(reinterpret_cast<const char *>(b), 4);
    return sock.writeFully(frame.data(), frame.size());
}

FrameStatus
recvFrame(Socket &sock, std::uint8_t *op, std::string *payload,
          std::uint32_t max_len)
{
    IoStatus st = sock.fill(4);
    if (st == IoStatus::Eof)
        return FrameStatus::Eof;
    if (st == IoStatus::Timeout)
        return FrameStatus::Timeout;
    if (st != IoStatus::Ok)
        return FrameStatus::Error;
    std::uint32_t len = loadLe32(sock.buf_.get() + sock.head_);
    if (len < 5)
        return FrameStatus::Malformed;
    if (len > max_len)
        return FrameStatus::TooBig;
    sock.head_ += 4;

    // The body streams through the read buffer, so a frame of any size
    // is copied once, from the buffer into *payload. EOF mid-frame is
    // a torn frame.
    auto torn = [](IoStatus s) {
        return s == IoStatus::Timeout ? FrameStatus::Timeout
                                      : FrameStatus::Error;
    };
    if ((st = sock.fill(1)) != IoStatus::Ok)
        return torn(st);
    const auto code = static_cast<std::uint8_t>(sock.buf_[sock.head_++]);
    std::uint32_t got = crc32c(&code, 1);
    payload->clear();
    payload->reserve(len - 5);
    for (std::size_t left = len - 5; left > 0;) {
        if ((st = sock.fill(1)) != IoStatus::Ok)
            return torn(st);
        const char *p = sock.buf_.get() + sock.head_;
        std::size_t n = std::min(left, sock.buffered());
        got = crc32cExtend(got, p, n);
        payload->append(p, n);
        sock.head_ += n;
        left -= n;
    }
    if ((st = sock.fill(4)) != IoStatus::Ok)
        return torn(st);
    std::uint32_t want = loadLe32(sock.buf_.get() + sock.head_);
    sock.head_ += 4;
    if (want != got)
        return FrameStatus::BadCrc;
    *op = code;
    return FrameStatus::Ok;
}

} // namespace sigil::net
