/**
 * @file
 * Minimal stream-socket layer for the profile-query daemon: RAII
 * sockets with per-direction timeouts, Unix-domain and loopback TCP
 * listeners with a self-pipe wakeup (so an accept loop can be unblocked
 * deterministically during shutdown), and the length-prefixed CRC32C
 * frame codec shared by server and client.
 *
 * Wire frame layout (all integers little-endian):
 *
 *     u32  len       count of the bytes that follow (op + payload + crc)
 *     u8   op        operation / response code
 *     ...  payload   len - 5 bytes, opaque to this layer
 *     u32  crc       CRC32C over op byte + payload
 *
 * Both ends enforce a caller-supplied frame-size cap: the writer
 * refuses an oversized frame before sending a byte, and the reader
 * checks the length prefix before allocating, so a hostile prefix
 * cannot balloon memory. The reader verifies the CRC before handing
 * the payload up, so a corrupted or fuzzed frame surfaces as
 * FrameStatus::BadCrc instead of as garbage reaching a request
 * decoder. Timeouts are plain SO_RCVTIMEO / SO_SNDTIMEO: a slow or
 * stalled peer turns into IoStatus::Timeout on the worker thread that
 * owns the connection, never a wedged server.
 *
 * Each Socket reads through its own fixed-size buffer: one recv()
 * usually brings in a whole frame (or several, when a peer sends
 * requests before reading answers), and the payload is copied once,
 * from the buffer into the caller's string. A frame is sent with one
 * send() of a buffer holding its head, payload and CRC.
 */

#ifndef SIGIL_SUPPORT_SOCKET_HH
#define SIGIL_SUPPORT_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace sigil::net {

/** Outcome of a blocking full read or write. */
enum class IoStatus {
    Ok,      ///< every requested byte transferred
    Eof,     ///< peer closed the stream mid-transfer (reads only)
    Timeout, ///< SO_RCVTIMEO / SO_SNDTIMEO deadline expired
    TooBig,  ///< frame over the caller's cap; nothing sent (sendFrame)
    Error,   ///< any other socket error (errno-level)
};

/** Human-readable name of an IoStatus ("ok", "eof", ...). */
const char *ioStatusName(IoStatus status);

/** Outcome of reading one wire frame. */
enum class FrameStatus {
    Ok,        ///< frame decoded, CRC verified
    Eof,       ///< clean EOF at a frame boundary
    Timeout,   ///< read deadline expired
    TooBig,    ///< length prefix exceeds the caller's cap
    Malformed, ///< length prefix below the 5-byte minimum
    BadCrc,    ///< CRC32C mismatch over op + payload
    Error,     ///< transport error (EOF mid-frame, errno-level)
};

/** Human-readable name of a FrameStatus ("ok", "bad-crc", ...). */
const char *frameStatusName(FrameStatus status);

/** Size of a Socket's read buffer, allocated on its first read. */
constexpr std::size_t kReadBufferBytes = 64 * 1024;

/**
 * Move-only RAII wrapper of a connected stream-socket fd and its read
 * buffer. A move hands over the buffered bytes with the fd.
 */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { closeNow(); }

    Socket(Socket &&other) noexcept
        : fd_(other.fd_), buf_(std::move(other.buf_)),
          head_(other.head_), tail_(other.tail_)
    {
        other.fd_ = -1;
        other.head_ = other.tail_ = 0;
    }
    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            closeNow();
            fd_ = other.fd_;
            buf_ = std::move(other.buf_);
            head_ = other.head_;
            tail_ = other.tail_;
            other.fd_ = -1;
            other.head_ = other.tail_ = 0;
        }
        return *this;
    }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /**
     * Set receive/send deadlines in milliseconds (0 = block forever).
     * Applies to every subsequent readFully/writeFully.
     */
    bool setTimeouts(int recv_ms, int send_ms);

    /**
     * Read exactly n bytes (EINTR-safe): bytes already buffered by
     * recvFrame() first, then straight from the socket.
     */
    IoStatus readFully(void *buf, std::size_t n);

    /** Write exactly n bytes (EINTR-safe, SIGPIPE-proof). */
    IoStatus writeFully(const void *buf, std::size_t n);

    /** Bytes received from the peer that no read has consumed yet. */
    std::size_t buffered() const { return tail_ - head_; }

    /** Close immediately; valid() turns false. Idempotent. */
    void closeNow();

  private:
    friend FrameStatus recvFrame(Socket &, std::uint8_t *, std::string *,
                                 std::uint32_t);

    /**
     * Make at least n <= kReadBufferBytes bytes readable at head_.
     * Calls recv() only while fewer are buffered, and each call asks
     * for all the free space, so one call usually brings in a frame.
     */
    IoStatus fill(std::size_t n);

    int fd_ = -1;
    std::unique_ptr<char[]> buf_;
    std::size_t head_ = 0; ///< first unread byte in buf_
    std::size_t tail_ = 0; ///< one past the last received byte
};

/** Connect to a Unix-domain listener; invalid Socket on failure. */
Socket connectUnix(const std::string &path);

/** Connect to a TCP listener; invalid Socket on failure. */
Socket connectTcp(const std::string &host, std::uint16_t port);

/**
 * Listening socket plus a self-pipe so wake() can unblock a pending
 * accept() from another thread — the mechanism behind the daemon's
 * graceful SIGTERM drain.
 */
class Listener
{
  public:
    Listener() = default;
    ~Listener();

    Listener(Listener &&other) noexcept;
    Listener &operator=(Listener &&other) noexcept;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind + listen on a Unix-domain path. An existing socket file at
     * the path is unlinked first (stale from a killed daemon). On
     * failure returns an invalid Listener and fills *err.
     */
    static Listener listenUnix(const std::string &path, std::string *err);

    /**
     * Bind + listen on loopback TCP. port 0 picks an ephemeral port;
     * boundPort() reports the actual one.
     */
    static Listener listenTcp(std::uint16_t port, std::string *err);

    bool valid() const { return fd_ >= 0; }

    /** Actual bound TCP port (0 for Unix listeners). */
    std::uint16_t boundPort() const { return port_; }

    /**
     * Block until a client connects, wake() is called, or an error
     * occurs. Returns an invalid Socket for the latter two; after a
     * wake() the listener stays usable (shutdown decides separately).
     */
    Socket accept();

    /** Unblock a pending (or the next) accept(). Thread-safe. */
    void wake();

    /** Close the listening fd and unlink a Unix socket path. */
    void closeNow();

  private:
    int fd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::uint16_t port_ = 0;
    std::string unixPath_;
};

/**
 * Encode and send one frame: len | op | payload | crc. max_len caps
 * the frame's len field as recvFrame()'s does; a larger frame returns
 * IoStatus::TooBig before any byte is written, and the connection
 * stays usable.
 */
IoStatus sendFrame(Socket &sock, std::uint8_t op,
                   std::string_view payload, std::uint32_t max_len);

/**
 * Receive one frame. max_len caps the length prefix (op + payload +
 * crc) before any allocation; an oversized or malformed prefix leaves
 * the stream desynchronized, so callers should close the connection on
 * anything but Ok. *op and *payload are meaningful only on Ok.
 */
FrameStatus recvFrame(Socket &sock, std::uint8_t *op,
                      std::string *payload, std::uint32_t max_len);

} // namespace sigil::net

#endif // SIGIL_SUPPORT_SOCKET_HH
