/**
 * @file
 * Wire protocol of the profile-query daemon (documented in
 * FORMATS.md §"sigild wire protocol").
 *
 * Every message is one frame of the net::socket codec:
 * u32le length | u8 op | payload | u32le CRC32C(op + payload).
 * Request payloads are ByteSink-encoded (varint-length-prefixed
 * strings); response payloads are either raw query text (Op::RespText)
 * or u8 error code + length-prefixed message (Op::RespError). The
 * protocol is strictly request→response on one connection; a client
 * may pipeline sequential requests but responses always come back in
 * order (one worker owns the connection).
 */

#ifndef SIGIL_SERVER_PROTOCOL_HH
#define SIGIL_SERVER_PROTOCOL_HH

#include <cstdint>

namespace sigil::server {

/** Protocol revision carried in the ping response. */
constexpr std::uint32_t kProtocolVersion = 1;

/** Operation codes. Requests < 0x80, responses >= 0x80. */
enum class Op : std::uint8_t {
    // Control plane.
    Ping = 0x01,     ///< () -> "sigild <version>"
    Stats = 0x02,    ///< () -> server + catalog counters
    List = 0x03,     ///< () -> one loaded trace per line
    Load = 0x20,     ///< (name, path) -> load report line
    Unload = 0x21,   ///< (name) -> confirmation line
    Shutdown = 0x22, ///< () -> confirmation, then graceful drain

    // Query plane (all renderings from core/profile_query.hh).
    Profile = 0x10,   ///< (name) -> full release-format profile
    Function = 0x11,  ///< (name, fn_name) -> matching context rows
    Edges = 0x12,     ///< (name) -> communication matrix
    Summary = 0x13,   ///< (name) -> flat report + comm summary
    Diff = 0x14,      ///< (name_a, name_b) -> structural diff
    Partition = 0x15, ///< (name) -> hw/sw partition candidates

    // Responses.
    RespText = 0x80,  ///< payload is the query text
    RespError = 0x81, ///< u8 ErrCode + varint-prefixed message
};

/** Structured error codes of Op::RespError. */
enum class ErrCode : std::uint8_t {
    BadFrame = 1,     ///< frame failed CRC / length validation
    BadRequest = 2,   ///< payload did not decode as the op requires
    UnknownOp = 3,    ///< request op code not in the table above
    NotFound = 4,     ///< no loaded trace (or function) by that name
    LoadFailed = 5,   ///< trace replay failed during Op::Load
    ShuttingDown = 6, ///< server is draining; retry elsewhere
    Internal = 7,     ///< anything else; message has detail
};

/** Human-readable error-code name ("bad-frame", "not-found", ...). */
const char *errCodeName(ErrCode code);

/**
 * Cap on request frames: control ops carry names/paths, never bulk.
 * The client refuses a larger request without sending it; the server
 * (ServerConfig::maxRequestFrame) refuses a larger length prefix.
 */
constexpr std::uint32_t kMaxRequestFrame = 1u << 16;

/**
 * Cap on response frames: a full profile of a large run is MBs. The
 * server answers a larger reply with ErrCode::Internal; the client
 * refuses a larger length prefix.
 */
constexpr std::uint32_t kMaxResponseFrame = 256u << 20;

} // namespace sigil::server

#endif // SIGIL_SERVER_PROTOCOL_HH
