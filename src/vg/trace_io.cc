#include "trace_io.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <unordered_map>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define SIGIL_HAVE_MMAP 1
#endif

#include "support/crc32c.hh"
#include "support/logging.hh"
#include "support/lz.hh"

namespace sigil::vg {

namespace {

/** The SGB3 file magic (docs/FORMATS.md §3.1). */
constexpr char kMagic[4] = {'S', 'G', 'B', '3'};
/** Formats of earlier releases; rejected with a named error. */
constexpr const char *kLegacyMagics[] = {"SGB1", "SGB2"};

/** @name Frame tags */
/// @{
constexpr std::uint8_t kTagEnd = 0x00;
constexpr std::uint8_t kTagFunctions = 0x01;
constexpr std::uint8_t kTagEvents = 0x02;
/**
 * Clean-shutdown trailer: written by finish() immediately before the
 * end frame, payload = varint total event count. Its presence proves
 * the recorder reached finish() and flushed everything; a salvaged
 * file without it is a crash capture (docs/FORMATS.md §3.2). Readers
 * predating this tag skip it as an unknown-but-valid frame.
 */
constexpr std::uint8_t kTagShutdown = 0x03;
/// @}

/**
 * Frame sync bytes. Resynchronization scans for this pattern and then
 * validates the header CRC, so the bytes only need to be unlikely, not
 * impossible, inside payload data; the non-ASCII guards keep them from
 * colliding with text or with the file magic.
 */
constexpr unsigned char kFrameSync[4] = {0xa7, 'S', 'B', 0xb3};

/**
 * Smallest possible frame: sync + tag + 4 one-byte varints + flags +
 * one-byte raw length + 2 CRCs.
 */
constexpr std::size_t kMinFrameBytes = 4 + 1 + 4 + 1 + 1 + 8;

/** Frame header flags: payload stored LZ-compressed (support/lz.hh). */
constexpr std::uint8_t kFrameFlagCompressed = 0x01;

/** Payloads below this are never worth a compression attempt. */
constexpr std::size_t kMinCompressBytes = 32;

/** Sanity caps rejecting absurd values decoded from corrupt input. */
constexpr std::uint64_t kMaxPayloadLen = std::uint64_t{1} << 26;
constexpr std::uint64_t kMaxNameLen = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxAccessSize = std::uint64_t{1} << 30;
constexpr std::uint64_t kMaxThreads = std::uint64_t{1} << 16;

/** @name Binary event opcodes */
/// @{
constexpr std::uint8_t kOpRead = 1;
constexpr std::uint8_t kOpWrite = 2;
constexpr std::uint8_t kOpOp = 3;
constexpr std::uint8_t kOpBranchTaken = 4;
constexpr std::uint8_t kOpBranchNotTaken = 5;
constexpr std::uint8_t kOpEnter = 6;
constexpr std::uint8_t kOpLeave = 7;
constexpr std::uint8_t kOpThreadSwitch = 8;
constexpr std::uint8_t kOpBarrier = 9;
constexpr std::uint8_t kOpRoiBegin = 10;
constexpr std::uint8_t kOpRoiEnd = 11;
/// @}

/**
 * Widest event encoding: an op's opcode byte plus two 10-byte varints.
 * An access takes at most 1 + 10 + 5 bytes, an enter or a thread switch
 * 1 + 5, every other event one byte.
 */
constexpr std::size_t kMaxEventBytes = 1 + 10 + 10;

/**
 * Widest frame header: sync, tag, four 10-byte varints, flags, the
 * raw-length varint and two CRCs.
 */
constexpr std::size_t kMaxFrameHeaderBytes = 4 + 1 + 4 * 10 + 1 + 10 + 8;

/** Encode v as a LEB128 varint at p; returns the end of the encoding. */
inline char *
putVarint(char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<char>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<char>(v);
    return p;
}

inline char *
putU32le(char *p, std::uint32_t v)
{
    p[0] = static_cast<char>(v);
    p[1] = static_cast<char>(v >> 8);
    p[2] = static_cast<char>(v >> 16);
    p[3] = static_cast<char>(v >> 24);
    return p + 4;
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Internal error transport; never escapes the public replay API. */
struct TraceAbort
{
    TraceError err;
};

[[noreturn]] void
raiseError(TraceErrorCause cause, std::uint64_t offset,
           std::int64_t block = -1, std::string detail = {})
{
    TraceError e;
    e.cause = cause;
    e.byteOffset = offset;
    e.blockIndex = block;
    e.detail = std::move(detail);
    throw TraceAbort{std::move(e)};
}

/** Read the remainder of a stream into one buffer. */
std::string
slurp(std::istream &is)
{
    std::string out;
    char buf[256 * 1024];
    for (;;) {
        is.read(buf, sizeof(buf));
        std::size_t got = static_cast<std::size_t>(is.gcount());
        if (got == 0)
            break;
        out.append(buf, got);
    }
    return out;
}

/**
 * Bounds-checked decoder over one byte range. Every read is validated
 * against the range end before touching memory, so no sequence of
 * input bytes can make the decoder read outside the buffer: an overrun
 * raises a TraceError (BoundsExceeded inside a length-framed block,
 * Truncated when the range is the rest of the stream) with the exact
 * offset instead of relying on stream EOF behaviour.
 */
class Cursor
{
  public:
    Cursor(const char *data, std::size_t len, std::uint64_t base_offset,
           std::int64_t block, TraceErrorCause bounds_cause)
        : data_(data), len_(len), base_(base_offset), block_(block),
          boundsCause_(bounds_cause)
    {}

    bool atEnd() const { return pos_ == len_; }
    std::size_t remaining() const { return len_ - pos_; }

    /** Absolute stream offset of the next byte. */
    std::uint64_t offset() const { return base_ + pos_; }

    std::uint8_t
    u8()
    {
        if (pos_ >= len_)
            raiseError(boundsCause_, offset(), block_);
        return static_cast<std::uint8_t>(data_[pos_++]);
    }

    std::uint64_t
    varint()
    {
        const unsigned char *p =
            reinterpret_cast<const unsigned char *>(data_) + pos_;
        std::size_t avail = len_ - pos_;
        // Fast path: first byte present and terminal.
        if (avail != 0 && !(p[0] & 0x80)) {
            ++pos_;
            return p[0];
        }
        std::uint64_t v = 0;
        unsigned shift = 0;
        std::size_t i = 0;
        for (;;) {
            if (i >= avail)
                raiseError(boundsCause_, base_ + pos_ + i, block_);
            if (shift >= 70)
                raiseError(TraceErrorCause::VarintOverflow,
                           base_ + pos_ + i, block_);
            std::uint8_t byte = p[i++];
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80)) {
                pos_ += i;
                return v;
            }
            shift += 7;
        }
    }

    std::string
    bytes(std::uint64_t n)
    {
        if (n > kMaxNameLen)
            raiseError(TraceErrorCause::BadRecord, offset(), block_,
                       "unreasonable string length");
        if (n > remaining())
            raiseError(boundsCause_, offset(), block_);
        std::string s(data_ + pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

  private:
    const char *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    std::uint64_t base_;
    std::int64_t block_;
    TraceErrorCause boundsCause_;
};

/**
 * Whether a decoded read/write record is well formed: its size is
 * reasonable and its range does not run past the top of the address
 * space. Every replay decoder checks its access records with this and
 * rejects the others as BadRecord, detailed by accessRecordError().
 */
bool
accessRecordOk(std::uint64_t addr, std::uint64_t size)
{
    return size <= kMaxAccessSize && !accessWraps(addr, size);
}

/** Rejection detail of a record accessRecordOk() refuses. */
std::string
accessRecordError(std::uint64_t addr, std::uint64_t size)
{
    if (size > kMaxAccessSize)
        return "unreasonable access size " + std::to_string(size);
    return "access of " + std::to_string(size) + " bytes at " +
           std::to_string(addr) +
           " wraps past the top of the address space";
}

/**
 * One syntactically decoded event awaiting semantic delivery. The
 * decode stage resolves the address-delta chain, so `a` holds the
 * absolute address for accesses (fn id / tid / iops for the others)
 * and `b` the size (flops for ops); `at` is the absolute offset of the
 * event's opcode byte, preserved so semantic errors raised at delivery
 * name the same position the fused serial decoder would.
 */
struct PreEvent
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t at = 0;
    std::uint8_t opcode = 0;
};

/**
 * Syntactic half of event decoding: opcode, operand varints, and the
 * value sanity caps — everything that depends only on the payload
 * bytes. Semantic checks (call depth, ROI state, function-id
 * resolution) stay with ReplayCtx::deliverEvent. The split preserves
 * the fused decoder's error positions exactly: operand errors are
 * raised here mid-event, value-cap errors at the event's `at`.
 */
void
decodeEvent(Cursor &c, std::uint64_t &prev_addr, std::int64_t block,
            PreEvent &ev)
{
    ev.at = c.offset();
    ev.opcode = c.u8();
    switch (ev.opcode) {
      case kOpRead:
      case kOpWrite: {
        prev_addr += static_cast<std::uint64_t>(unzigzag(c.varint()));
        std::uint64_t size = c.varint();
        if (!accessRecordOk(prev_addr, size))
            raiseError(TraceErrorCause::BadRecord, ev.at, block,
                       accessRecordError(prev_addr, size));
        ev.a = prev_addr;
        ev.b = size;
        break;
      }
      case kOpOp:
        ev.a = c.varint();
        ev.b = c.varint();
        break;
      case kOpBranchTaken:
      case kOpBranchNotTaken:
        break;
      case kOpEnter:
        ev.a = c.varint();
        break;
      case kOpLeave:
        break;
      case kOpThreadSwitch: {
        std::uint64_t tid = c.varint();
        if (tid >= kMaxThreads)
            raiseError(TraceErrorCause::BadRecord, ev.at, block,
                       "unreasonable thread id " + std::to_string(tid));
        ev.a = tid;
        break;
      }
      case kOpBarrier:
      case kOpRoiBegin:
      case kOpRoiEnd:
        break;
      default:
        raiseError(TraceErrorCause::UnknownOpcode, ev.at, block,
                   "opcode " + std::to_string(ev.opcode));
    }
}

/**
 * Shared event-delivery state of a binary replay: the guest, the
 * function-id map, and the salvage-mode guest-state reconciliation
 * (synthesized functions for lost name records, dropped underflowing
 * leaves, ROI transitions reconciled against the guest's actual state).
 */
struct ReplayCtx
{
    Guest &guest;
    ReplayPolicy policy;
    ReplayReport &report;
    std::unordered_map<std::uint64_t, FunctionId> fnMap;
    std::uint64_t synthCounter = 0;

    bool salvage() const { return policy == ReplayPolicy::Salvage; }

    void
    recordError(const TraceError &e, std::size_t max_errors)
    {
        if (report.errors.size() < max_errors)
            report.errors.push_back(e);
    }

    FunctionId
    resolveFunction(std::uint64_t id, std::uint64_t offset,
                    std::int64_t block)
    {
        auto it = fnMap.find(id);
        if (it != fnMap.end())
            return it->second;
        if (!salvage())
            raiseError(TraceErrorCause::UnknownFunction, offset, block,
                       "unknown function id " + std::to_string(id));
        // The function record was lost with its block: intern a
        // stable placeholder so call-tree structure survives even if
        // the name is gone.
        FunctionId fn = guest.functions().intern(
            "<lost-fn-" + std::to_string(++synthCounter) + ">");
        fnMap.emplace(id, fn);
        ++report.functionsSynthesized;
        return fn;
    }

    /**
     * Semantic half of event delivery: guest-state checks and the
     * actual tool dispatch, in stream order, after the frame's pure
     * syntactic decode (decodeFramePayload) has finished.
     */
    void
    deliverEvent(const PreEvent &ev, std::int64_t block)
    {
        switch (ev.opcode) {
          case kOpRead:
          case kOpWrite:
            if (guest.callDepth() == 0) {
                // An access outside any function would panic the
                // guest; only decodable from a damaged stream.
                if (!salvage())
                    raiseError(TraceErrorCause::BadRecord, ev.at, block,
                               "access outside any function");
                break;
            }
            if (ev.opcode == kOpRead)
                guest.read(ev.a, static_cast<unsigned>(ev.b));
            else
                guest.write(ev.a, static_cast<unsigned>(ev.b));
            break;
          case kOpOp:
            if (guest.callDepth() == 0) {
                // Tools attribute ops to the current context, which
                // does not exist when the enclosing enter was lost.
                if (!salvage())
                    raiseError(TraceErrorCause::BadRecord, ev.at, block,
                               "op outside any function");
                break;
            }
            if (ev.a)
                guest.iop(ev.a);
            if (ev.b)
                guest.flop(ev.b);
            break;
          case kOpBranchTaken:
          case kOpBranchNotTaken:
            if (guest.callDepth() == 0) {
                if (!salvage())
                    raiseError(TraceErrorCause::BadRecord, ev.at, block,
                               "branch outside any function");
                break;
            }
            guest.branch(ev.opcode == kOpBranchTaken);
            break;
          case kOpEnter:
            guest.enter(resolveFunction(ev.a, ev.at, block));
            break;
          case kOpLeave:
            if (guest.callDepth() == 0) {
                // Call-depth reconciliation: the matching enter was
                // lost with a skipped block.
                if (!salvage())
                    raiseError(TraceErrorCause::BadRecord, ev.at, block,
                               "leave with empty call stack");
                ++report.leavesDropped;
                break;
            }
            guest.leave();
            break;
          case kOpThreadSwitch:
            while (guest.numThreads() <= ev.a)
                guest.spawnThread();
            guest.switchThread(static_cast<ThreadId>(ev.a));
            break;
          case kOpBarrier:
            guest.barrier();
            break;
          case kOpRoiBegin:
          case kOpRoiEnd: {
            bool begin = ev.opcode == kOpRoiBegin;
            if (guest.inRoi() == begin) {
                // ROI reconciliation: the paired transition was lost.
                if (!salvage())
                    raiseError(TraceErrorCause::BadRecord, ev.at, block,
                               begin ? "nested roi begin"
                                     : "roi end outside roi");
                ++report.roiDropped;
                break;
            }
            if (begin)
                guest.roiBegin();
            else
                guest.roiEnd();
            break;
          }
          default:
            // Unreachable: decodeEvent rejects unknown opcodes.
            raiseError(TraceErrorCause::UnknownOpcode, ev.at, block,
                       "opcode " + std::to_string(ev.opcode));
        }
        ++report.eventsDelivered;
    }
};

/** @name Frame header parsing */
/// @{

struct FrameHeader
{
    std::uint8_t tag = 0;
    std::uint64_t blockSeq = 0;
    std::uint64_t firstEventSeq = 0;
    std::uint64_t eventCount = 0;
    std::uint64_t payloadLen = 0; ///< stored (possibly compressed) bytes
    std::uint32_t payloadCrc = 0;
    std::size_t headerLen = 0; ///< sync through headerCrc, inclusive
    /** Payload is LZ-compressed (frame flags bit 0). */
    bool compressed = false;
    /** Uncompressed payload length. */
    std::uint64_t rawLen = 0;
};

/**
 * Try to parse and validate a frame header at data[off]. Fails
 * (nullopt) on missing sync bytes, malformed or overlong varints,
 * implausible field values, unknown frame flags, or a header-CRC
 * mismatch — all without reading past the buffer, so it is safe to
 * probe arbitrary offsets during resynchronization.
 */
std::optional<FrameHeader>
parseFrameAt(std::string_view data, std::size_t off)
{
    if (off + kMinFrameBytes > data.size())
        return std::nullopt;
    const unsigned char *p =
        reinterpret_cast<const unsigned char *>(data.data()) + off;
    std::size_t avail = data.size() - off;
    if (std::memcmp(p, kFrameSync, 4) != 0)
        return std::nullopt;

    std::size_t pos = 4;
    FrameHeader h;
    h.tag = p[pos++];

    auto varint = [&](std::uint64_t &out) -> bool {
        std::uint64_t v = 0;
        unsigned shift = 0;
        for (;;) {
            if (pos >= avail || shift >= 70)
                return false;
            std::uint8_t byte = p[pos++];
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80)) {
                out = v;
                return true;
            }
            shift += 7;
        }
    };
    if (!varint(h.blockSeq) || !varint(h.firstEventSeq) ||
        !varint(h.eventCount) || !varint(h.payloadLen)) {
        return std::nullopt;
    }
    if (pos >= avail)
        return std::nullopt;
    std::uint8_t flags = p[pos++];
    if (flags & ~kFrameFlagCompressed)
        return std::nullopt;
    h.compressed = flags & kFrameFlagCompressed;
    if (!varint(h.rawLen))
        return std::nullopt;
    // An uncompressed frame must store exactly its raw bytes; a
    // compressed one must actually be smaller, or the writer would
    // have stored it raw.
    if (h.compressed ? h.payloadLen >= h.rawLen
                     : h.payloadLen != h.rawLen) {
        return std::nullopt;
    }
    if (pos + 8 > avail)
        return std::nullopt;
    if (h.payloadLen > kMaxPayloadLen || h.rawLen > kMaxPayloadLen ||
        h.eventCount > h.rawLen) {
        return std::nullopt;
    }
    h.payloadCrc = static_cast<std::uint32_t>(p[pos]) |
                   static_cast<std::uint32_t>(p[pos + 1]) << 8 |
                   static_cast<std::uint32_t>(p[pos + 2]) << 16 |
                   static_cast<std::uint32_t>(p[pos + 3]) << 24;
    std::uint32_t header_crc =
        static_cast<std::uint32_t>(p[pos + 4]) |
        static_cast<std::uint32_t>(p[pos + 5]) << 8 |
        static_cast<std::uint32_t>(p[pos + 6]) << 16 |
        static_cast<std::uint32_t>(p[pos + 7]) << 24;
    if (crc32c(p, pos + 4) != header_crc)
        return std::nullopt;
    h.headerLen = pos + 8;
    return h;
}

/** Next offset >= from holding a valid frame header; npos if none. */
std::size_t
findNextFrame(std::string_view data, std::size_t from)
{
    while (from + kMinFrameBytes <= data.size()) {
        const void *hit =
            std::memchr(data.data() + from, kFrameSync[0],
                        data.size() - from - (kMinFrameBytes - 1));
        if (hit == nullptr)
            return std::string_view::npos;
        from = static_cast<std::size_t>(static_cast<const char *>(hit) -
                                        data.data());
        if (parseFrameAt(data, from))
            return from;
        ++from;
    }
    return std::string_view::npos;
}

/// @}

/** @name Per-frame decode */
/// @{

/**
 * Everything about one frame that can be computed from the raw bytes
 * alone, independent of replay state: the payload-CRC verdict, the
 * decompressed image, the syntactically decoded events or
 * function records, and the first syntactic error if the payload is
 * malformed. Events before `error` are exactly those the serial
 * decoder would have delivered before raising it.
 */
struct DecodeResult
{
    bool crcOk = false;
    std::vector<PreEvent> events;
    std::vector<std::pair<std::uint64_t, std::string>> fns;
    std::optional<TraceError> error;
};

/**
 * Pure per-frame decode: verify the payload CRC, decompress if the
 * frame says so, and syntactically decode the payload. `payload_off`
 * is the absolute file offset of the stored payload; errors inside a
 * compressed payload are positioned relative to it in the uncompressed
 * image.
 */
void
decodeFramePayload(std::string_view payload, std::uint64_t payload_off,
                   const FrameHeader &h, std::int64_t block,
                   DecodeResult &out)
{
    out.crcOk =
        crc32c(payload.data(), payload.size()) == h.payloadCrc;
    if (!out.crcOk)
        return;

    std::string raw;
    if (h.compressed) {
        raw.resize(static_cast<std::size_t>(h.rawLen));
        if (!lzDecompress(payload.data(), payload.size(), raw.data(),
                          raw.size())) {
            TraceError e;
            e.cause = TraceErrorCause::Decompress;
            e.byteOffset = payload_off;
            e.blockIndex = block;
            e.detail = "compressed payload does not decompress to " +
                       std::to_string(h.rawLen) + " bytes";
            out.error = std::move(e);
            return;
        }
        payload = raw;
    }

    Cursor c(payload.data(), payload.size(), payload_off, block,
             TraceErrorCause::BoundsExceeded);
    try {
        if (h.tag == kTagFunctions) {
            while (!c.atEnd()) {
                std::uint64_t id = c.varint();
                out.fns.emplace_back(id, c.bytes(c.varint()));
            }
        } else if (h.tag == kTagEvents) {
            // Cap the reservation: eventCount is header-controlled and
            // CRC-valid headers can still be adversarial.
            out.events.reserve(static_cast<std::size_t>(
                std::min<std::uint64_t>(h.eventCount, 65536)));
            std::uint64_t prev_addr = 0;
            for (std::uint64_t i = 0; i < h.eventCount; ++i) {
                PreEvent ev;
                decodeEvent(c, prev_addr, block, ev);
                out.events.push_back(ev);
            }
            if (!c.atEnd())
                raiseError(TraceErrorCause::BadRecord, c.offset(),
                           block, "trailing bytes in event block");
        }
    } catch (TraceAbort &abort) {
        out.error = std::move(abort.err);
    }
}

/// @}

} // namespace

// ---------------------------------------------------------------------
// Binary recorder
// ---------------------------------------------------------------------

BinaryTraceRecorder::BinaryTraceRecorder(std::ostream &os,
                                         std::size_t block_events)
    : os_(os), maxBlockEvents_(block_events)
{
    if (maxBlockEvents_ == 0)
        fatal("binary trace: block size must be at least 1 event");
    if (maxBlockEvents_ > kMaxPayloadLen / kMaxEventBytes)
        fatal("binary trace: %zu events per block can exceed the %llu-byte "
              "payload cap",
              maxBlockEvents_,
              static_cast<unsigned long long>(kMaxPayloadLen));
    // Sized once for a block of worst-case events: the event count that
    // closes a block is the only capacity check an event pays.
    block_ = std::make_unique_for_overwrite<char[]>(maxBlockEvents_ *
                                                    kMaxEventBytes);
    cur_ = block_.get();
}

void
BinaryTraceRecorder::attach(const Guest &guest)
{
    Tool::attach(guest);
    const std::string &name = guest.programName();
    char fields[10 + 10];
    char *p = putVarint(fields, 1); // version
    p = putVarint(p, name.size());
    std::string preamble(kMagic, 4);
    preamble.append(fields, p);
    preamble += name;
    os_.write(preamble.data(), static_cast<std::streamsize>(preamble.size()));
}

void
BinaryTraceRecorder::ensureFunction(FunctionId fn)
{
    std::size_t idx = static_cast<std::size_t>(fn);
    if (idx >= emitted_.size())
        emitted_.resize(idx + 1, false);
    if (emitted_[idx])
        return;
    emitted_[idx] = true;
    // Bare records accumulate into one function-block payload, framed
    // by flushBlock() ahead of the events that reference them.
    const std::string &name = guest_->functions().name(fn);
    char rec[10 + 10];
    char *p = putVarint(
        rec, static_cast<std::uint64_t>(static_cast<std::uint32_t>(fn)));
    p = putVarint(p, name.size());
    pendingFns_.append(rec, p);
    pendingFns_ += name;
}

void
BinaryTraceRecorder::writeFrame(std::uint8_t tag, std::string_view payload,
                                std::uint64_t first_event,
                                std::uint64_t event_count)
{
    // The stored payload goes right after kMaxFrameHeaderBytes of room;
    // the header, built once the stored length is known, is copied into
    // the room just before it, so header and payload leave in one write.
    if (frame_.size() < kMaxFrameHeaderBytes + payload.size())
        frame_.resize(kMaxFrameHeaderBytes + payload.size());
    char *stored = frame_.data() + kMaxFrameHeaderBytes;
    const std::uint64_t raw_len = payload.size();
    std::size_t stored_len = 0;
    if (payload.size() >= kMinCompressBytes) {
        // Cap at size-1: a frame is stored compressed only when that
        // actually saves bytes, so replay can reject any compressed
        // frame whose payload is not smaller than its raw length.
        stored_len = lzCompress(payload.data(), payload.size(), stored,
                                payload.size() - 1);
    }
    const bool compressed = stored_len != 0;
    if (!compressed) {
        std::memcpy(stored, payload.data(), payload.size());
        stored_len = payload.size();
    }
    char hdr[kMaxFrameHeaderBytes];
    std::memcpy(hdr, kFrameSync, 4);
    char *p = hdr + 4;
    *p++ = static_cast<char>(tag);
    p = putVarint(p, blockSeq_++);
    p = putVarint(p, first_event);
    p = putVarint(p, event_count);
    p = putVarint(p, stored_len);
    *p++ = static_cast<char>(compressed ? kFrameFlagCompressed : 0);
    p = putVarint(p, raw_len);
    p = putU32le(p, crc32c(stored, stored_len));
    p = putU32le(p, crc32c(hdr, static_cast<std::size_t>(p - hdr)));
    const std::size_t hdr_len = static_cast<std::size_t>(p - hdr);
    char *frame = stored - hdr_len;
    std::memcpy(frame, hdr, hdr_len);
    // Publish the frame with a single stream write. Split header and
    // payload writes open a window — one write(2) retired, the other
    // not — where a crash leaves a valid frame header whose payload
    // never reached the fd; salvage then (correctly) drops the frame,
    // but any reader that trusts a validated header over-counts. One
    // write narrows the torn-frame window to what the kernel itself
    // can tear.
    os_.write(frame, static_cast<std::streamsize>(hdr_len + stored_len));
}

void
BinaryTraceRecorder::flushBlock()
{
    std::uint64_t first_event = events_ - blockEvents_;
    if (!pendingFns_.empty()) {
        writeFrame(kTagFunctions, pendingFns_, first_event, 0);
        pendingFns_.clear();
    }
    if (blockEvents_ == 0)
        return;
    writeFrame(kTagEvents, std::string_view(block_.get(), cur_),
               first_event, blockEvents_);
    // Each block must decode independently (salvage can drop any
    // predecessor), so the address delta chain restarts here.
    prevAddr_ = 0;
    cur_ = block_.get();
    blockEvents_ = 0;
}

void
BinaryTraceRecorder::event(std::uint8_t opcode)
{
    *cur_ = static_cast<char>(opcode);
    endEvent(cur_ + 1);
}

void
BinaryTraceRecorder::endEvent(char *end)
{
    cur_ = end;
    ++events_;
    if (++blockEvents_ >= maxBlockEvents_)
        flushBlock();
}

void
BinaryTraceRecorder::access(std::uint8_t opcode, Addr addr, unsigned size)
{
    char *p = cur_;
    *p++ = static_cast<char>(opcode);
    p = putVarint(p, zigzag(static_cast<std::int64_t>(addr - prevAddr_)));
    p = putVarint(p, size);
    prevAddr_ = addr;
    endEvent(p);
}

void
BinaryTraceRecorder::fnEnter(ContextId ctx, CallNum call)
{
    (void)call;
    FunctionId fn = guest_->contexts().function(ctx);
    ensureFunction(fn);
    char *p = cur_;
    *p++ = static_cast<char>(kOpEnter);
    p = putVarint(p,
                  static_cast<std::uint64_t>(static_cast<std::uint32_t>(fn)));
    endEvent(p);
}

void
BinaryTraceRecorder::fnLeave(ContextId ctx, CallNum call)
{
    (void)ctx;
    (void)call;
    event(kOpLeave);
}

void
BinaryTraceRecorder::memRead(Addr addr, unsigned size)
{
    access(kOpRead, addr, size);
}

void
BinaryTraceRecorder::memWrite(Addr addr, unsigned size)
{
    access(kOpWrite, addr, size);
}

void
BinaryTraceRecorder::op(std::uint64_t iops, std::uint64_t flops)
{
    char *p = cur_;
    *p++ = static_cast<char>(kOpOp);
    p = putVarint(p, iops);
    p = putVarint(p, flops);
    endEvent(p);
}

void
BinaryTraceRecorder::branch(bool taken)
{
    event(taken ? kOpBranchTaken : kOpBranchNotTaken);
}

void
BinaryTraceRecorder::threadSwitch(ThreadId tid)
{
    char *p = cur_;
    *p++ = static_cast<char>(kOpThreadSwitch);
    p = putVarint(p, tid);
    endEvent(p);
}

void
BinaryTraceRecorder::barrier()
{
    event(kOpBarrier);
}

void
BinaryTraceRecorder::roi(bool active)
{
    event(active ? kOpRoiBegin : kOpRoiEnd);
}

void
BinaryTraceRecorder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flushBlock();
    // Clean-shutdown trailer: its presence tells replay the recorder
    // reached finish() and flushed everything, so a salvageable file
    // without it is a crash capture. A killed process never gets
    // here, which is exactly the signal.
    char shutdown[10];
    const char *end = putVarint(shutdown, events_);
    writeFrame(kTagShutdown, std::string_view(shutdown, end), events_, 0);
    // The end frame doubles as the trailer: firstEventSeq is the total
    // event count, giving salvage replays the ground truth for their
    // skipped-vs-delivered accounting.
    writeFrame(kTagEnd, {}, events_, 0);
    os_.flush();
}

// ---------------------------------------------------------------------
// Binary replay session
// ---------------------------------------------------------------------

struct BinaryReplaySession::Impl
{
    Guest &guest;
    ReplayOptions opts;
    ReplayReport report;
    ReplayCtx ctx;
    std::string owned;     ///< backing store when built from a stream
    std::string_view data; ///< the trace bytes (owned or caller-held)
    std::size_t pos = 0;       ///< offset of the next frame
    std::uint64_t streamPos = 0; ///< next expected event sequence
    std::uint64_t eventBlocks = 0;
    bool done = false;
    bool finished = false;

    Impl(std::istream &is, Guest &g, const ReplayOptions &o)
        : guest(g), opts(o), ctx{g, o.policy, report, {}, 0}
    {
        owned = slurp(is);
        data = owned;
        start();
    }

    Impl(std::string_view view, Guest &g, const ReplayOptions &o)
        : guest(g), opts(o), ctx{g, o.policy, report, {}, 0}
    {
        data = view;
        start();
    }

    bool salvage() const { return opts.policy == ReplayPolicy::Salvage; }

    /** Record e; in strict mode it also stops the session. */
    void
    fail(TraceError e)
    {
        if (salvage()) {
            ctx.recordError(e, opts.maxRecordedErrors);
        } else {
            report.error = std::move(e);
            done = true;
        }
    }

    void
    start()
    {
        if (data.size() >= 4 && std::memcmp(data.data(), kMagic, 4) == 0) {
            // Preamble: version + program name (informational).
            Cursor c(data.data() + 4, data.size() - 4, 4, -1,
                     TraceErrorCause::Truncated);
            try {
                std::uint64_t version = c.varint();
                if (version != 1)
                    raiseError(TraceErrorCause::BadVersion, 4, -1,
                               "unsupported version " +
                                   std::to_string(version));
                c.bytes(c.varint());
                pos = 4 + static_cast<std::size_t>(c.offset() - 4);
            } catch (TraceAbort &a) {
                fail(std::move(a.err));
                if (salvage())
                    resyncFrom(4);
            }
            return;
        }
        TraceError e;
        e.cause = TraceErrorCause::BadMagic;
        e.byteOffset = 0;
        e.detail = "not an SGB3 sigil trace";
        for (const char *legacy : kLegacyMagics) {
            if (data.size() >= 4 && std::memcmp(data.data(), legacy, 4) == 0)
                e.detail = std::string(legacy) +
                           " is a legacy trace format this reader no "
                           "longer supports; re-record the trace";
        }
        fail(std::move(e));
        // Salvage can still mine a damaged preamble for valid frames:
        // every frame is self-describing.
        if (salvage())
            resyncFrom(0);
    }

    /**
     * Scan forward for the next valid frame header, accounting the
     * gap. Ends the session (as truncation) when none remains.
     */
    void
    resyncFrom(std::size_t from)
    {
        std::size_t np = findNextFrame(data, from);
        if (np == std::string_view::npos) {
            report.bytesSkipped += data.size() - pos;
            report.truncated = true;
            done = true;
            pos = data.size();
            return;
        }
        report.bytesSkipped += np - pos;
        ++report.resyncs;
        pos = np;
    }

    /** Drop an event frame, accounting its events as skipped. */
    void
    skipEventFrame(const FrameHeader &h)
    {
        if (h.tag != kTagEvents)
            return;
        ++eventBlocks;
        if (h.firstEventSeq < streamPos) {
            ++report.blocksStale;
            return;
        }
        report.eventsSkipped +=
            h.firstEventSeq + h.eventCount - streamPos;
        streamPos = h.firstEventSeq + h.eventCount;
        ++report.blocksSkipped;
    }

    bool
    step()
    {
        if (done)
            return false;
        if (pos >= data.size()) {
            if (!report.sawTrailer) {
                TraceError e;
                e.cause = TraceErrorCause::Truncated;
                e.byteOffset = pos;
                e.detail = "missing end frame";
                report.truncated = true;
                fail(std::move(e));
            }
            done = true;
            return false;
        }

        std::optional<FrameHeader> h = parseFrameAt(data, pos);
        if (!h) {
            TraceError e;
            e.byteOffset = pos;
            if (data.size() - pos < kMinFrameBytes) {
                e.cause = TraceErrorCause::Truncated;
                e.detail = "stream ends inside a frame";
            } else if (std::memcmp(data.data() + pos, kFrameSync, 4) == 0) {
                e.cause = TraceErrorCause::HeaderCrc;
                e.detail = "frame header failed validation";
            } else {
                e.cause = TraceErrorCause::BadRecord;
                e.detail = "expected frame sync bytes";
            }
            bool was_salvage = salvage();
            fail(std::move(e));
            if (was_salvage)
                resyncFrom(pos + 1);
            return !done;
        }

        std::size_t frame_end =
            pos + h->headerLen + static_cast<std::size_t>(h->payloadLen);
        std::int64_t bidx = static_cast<std::int64_t>(h->blockSeq);
        if (frame_end > data.size()) {
            TraceError e;
            e.cause = TraceErrorCause::Truncated;
            e.byteOffset = pos;
            e.blockIndex = bidx;
            e.detail = "stream ends inside a block payload";
            bool was_salvage = salvage();
            fail(std::move(e));
            if (was_salvage) {
                skipEventFrame(*h);
                resyncFrom(pos + 1);
            }
            return !done;
        }

        std::uint64_t payload_off = pos + h->headerLen;

        // Pure per-frame work (payload CRC, decompression, syntactic
        // decode) first; every stateful decision below then consumes
        // the result in stream order.
        DecodeResult decoded;
        decodeFramePayload(
            data.substr(static_cast<std::size_t>(payload_off),
                        static_cast<std::size_t>(h->payloadLen)),
            payload_off, *h, bidx, decoded);

        if (!decoded.crcOk) {
            TraceError e;
            e.cause = TraceErrorCause::PayloadCrc;
            e.byteOffset = pos;
            e.blockIndex = bidx;
            e.detail = "block payload failed validation";
            bool was_salvage = salvage();
            fail(std::move(e));
            if (was_salvage) {
                skipEventFrame(*h);
                report.bytesSkipped += frame_end - pos;
                pos = frame_end;
            }
            return !done;
        }

        switch (h->tag) {
          case kTagEnd:
            report.sawTrailer = true;
            report.totalEventsRecorded = h->firstEventSeq;
            if (h->firstEventSeq > streamPos) {
                // Blocks lost immediately before the trailer.
                report.eventsSkipped += h->firstEventSeq - streamPos;
                streamPos = h->firstEventSeq;
            }
            pos = frame_end;
            done = true;
            break;

          case kTagFunctions: {
            // Records decoded before a syntactic error are exactly the
            // ones the serial decoder interned before raising it.
            for (const auto &[id, name] : decoded.fns)
                ctx.fnMap[id] = guest.functions().intern(name);
            if (decoded.error.has_value())
                fail(*decoded.error);
            pos = frame_end;
            break;
          }

          case kTagEvents: {
            if (h->firstEventSeq < streamPos) {
                // Duplicate or reordered stale block: its events were
                // already delivered (or accounted as a gap); replaying
                // it would double-deliver.
                ++report.blocksStale;
                ++eventBlocks;
                pos = frame_end;
                break;
            }
            if (h->firstEventSeq > streamPos) {
                // Gap: whole blocks were lost before this one.
                report.eventsSkipped += h->firstEventSeq - streamPos;
                streamPos = h->firstEventSeq;
            }
            std::uint64_t delivered = 0;
            bool clean = true;
            try {
                // Events before a syntactic error are exactly those
                // the serial decoder would have delivered before it; a
                // semantic (strict-mode) error interrupts the loop
                // earlier, just as the fused decoder would.
                for (const PreEvent &ev : decoded.events) {
                    ctx.deliverEvent(ev, bidx);
                    ++delivered;
                }
                if (decoded.error.has_value())
                    throw TraceAbort{*decoded.error};
            } catch (TraceAbort &a) {
                clean = false;
                fail(std::move(a.err));
                if (salvage()) {
                    report.eventsSkipped += h->eventCount - delivered;
                    ++report.blocksSkipped;
                }
            }
            streamPos = h->firstEventSeq + h->eventCount;
            if (clean)
                ++report.blocksDelivered;
            ++eventBlocks;
            pos = frame_end;
            break;
          }

          case kTagShutdown:
            // The recorder reached finish() and flushed everything
            // before this frame: the capture is complete, not a crash
            // remnant. The end frame right after carries the trailer
            // accounting.
            report.cleanShutdown = true;
            pos = frame_end;
            break;

          default: {
            TraceError e;
            e.cause = TraceErrorCause::UnknownSection;
            e.byteOffset = pos;
            e.blockIndex = bidx;
            e.detail = "frame tag " + std::to_string(h->tag);
            bool was_salvage = salvage();
            fail(std::move(e));
            if (was_salvage) {
                // Valid frame of an unknown (future?) type: its length
                // is trustworthy, so skip it precisely.
                ++report.blocksSkipped;
                report.bytesSkipped += frame_end - pos;
                pos = frame_end;
            }
            break;
          }
        }
        return !done;
    }

    ReplayReport
    finishReplay()
    {
        if (!finished) {
            finished = true;
            if (!report.error.has_value())
                guest.finish();
        }
        return report;
    }
};

BinaryReplaySession::BinaryReplaySession(std::istream &is, Guest &guest,
                                         const ReplayOptions &options)
    : impl_(std::make_unique<Impl>(is, guest, options))
{}

BinaryReplaySession::BinaryReplaySession(std::string_view data,
                                         Guest &guest,
                                         const ReplayOptions &options)
    : impl_(std::make_unique<Impl>(data, guest, options))
{}

BinaryReplaySession::~BinaryReplaySession() = default;

bool
BinaryReplaySession::step()
{
    return impl_->step();
}

bool
BinaryReplaySession::done() const
{
    return impl_->done;
}

const ReplayReport &
BinaryReplaySession::report() const
{
    return impl_->report;
}

ReplayReport
BinaryReplaySession::finish()
{
    return impl_->finishReplay();
}

std::uint64_t
BinaryReplaySession::blocksProcessed() const
{
    return impl_->eventBlocks;
}

std::uint64_t
BinaryReplaySession::nextOffset() const
{
    return impl_->pos;
}

void
BinaryReplaySession::saveReaderState(ByteSink &sink) const
{
    const Impl &s = *impl_;
    sink.raw("SGRS", 4);
    sink.u8(2); // version 2: adds the cleanShutdown flag
    sink.u64(s.pos);
    sink.u64(s.streamPos);
    sink.u64(s.eventBlocks);
    sink.u64(s.ctx.synthCounter);
    const ReplayReport &r = s.report;
    sink.u64(r.eventsDelivered);
    sink.u64(r.eventsSkipped);
    sink.u64(r.blocksDelivered);
    sink.u64(r.blocksSkipped);
    sink.u64(r.blocksStale);
    sink.u64(r.bytesSkipped);
    sink.u64(r.resyncs);
    sink.u64(r.leavesDropped);
    sink.u64(r.roiDropped);
    sink.u64(r.functionsSynthesized);
    sink.u8(r.cleanShutdown ? 1 : 0);
    sink.varint(s.ctx.fnMap.size());
    for (const auto &[id, fn] : s.ctx.fnMap) {
        sink.varint(id);
        sink.str(s.guest.functions().name(fn));
    }
}

bool
BinaryReplaySession::restoreReaderState(ByteSource &src)
{
    Impl &s = *impl_;
    char magic[4];
    src.raw(magic, 4);
    if (!src.ok() || std::memcmp(magic, "SGRS", 4) != 0)
        return false;
    if (src.u8() != 2)
        return false;
    std::uint64_t pos = src.u64();
    s.streamPos = src.u64();
    s.eventBlocks = src.u64();
    s.ctx.synthCounter = src.u64();
    ReplayReport &r = s.report;
    r.eventsDelivered = src.u64();
    r.eventsSkipped = src.u64();
    r.blocksDelivered = src.u64();
    r.blocksSkipped = src.u64();
    r.blocksStale = src.u64();
    r.bytesSkipped = src.u64();
    r.resyncs = src.u64();
    r.leavesDropped = src.u64();
    r.roiDropped = src.u64();
    r.functionsSynthesized = src.u64();
    r.cleanShutdown = src.u8() != 0;
    std::uint64_t n = src.varint();
    s.ctx.fnMap.clear();
    for (std::uint64_t i = 0; i < n && src.ok(); ++i) {
        std::uint64_t id = src.varint();
        s.ctx.fnMap[id] = s.guest.functions().intern(src.str());
    }
    if (!src.ok() || pos > s.data.size()) {
        s.done = true;
        return false;
    }
    s.pos = static_cast<std::size_t>(pos);
    s.done = false;
    // A session that already errored cannot be resumed over the error.
    return !r.error.has_value();
}

// ---------------------------------------------------------------------
// Mapped trace input
// ---------------------------------------------------------------------

MappedTraceFile::MappedTraceFile(const std::string &path)
{
#ifdef SIGIL_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        struct stat st;
        bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
        if (regular && st.st_size == 0) {
            // mmap rejects zero-length mappings; an empty file is
            // simply an empty view.
            ::close(fd);
            ok_ = true;
            return;
        }
        if (regular) {
            void *m =
                ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
            ::close(fd);
            if (m != MAP_FAILED) {
                map_ = m;
                mapLen_ = static_cast<std::size_t>(st.st_size);
                view_ = std::string_view(static_cast<const char *>(m),
                                         mapLen_);
                ok_ = true;
                return;
            }
            // mmap refused a regular file (e.g. an exotic filesystem):
            // fall through to the stream read.
        } else {
            // Pipes, FIFOs, devices: not mappable. Drain this very
            // descriptor — closing and reopening a pipe would drop
            // whatever the writer already buffered into it.
            char buf[256 * 1024];
            for (;;) {
                ssize_t got = ::read(fd, buf, sizeof(buf));
                if (got > 0) {
                    owned_.append(buf, static_cast<std::size_t>(got));
                    continue;
                }
                if (got == 0) {
                    ::close(fd);
                    view_ = owned_;
                    ok_ = true;
                    return;
                }
                if (errno == EINTR)
                    continue;
                ::close(fd);
                error_ = "read error on '" + path + "'";
                return;
            }
        }
    }
#endif
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        error_ = "cannot open '" + path + "' for reading";
        return;
    }
    owned_ = slurp(is);
    view_ = owned_;
    ok_ = true;
}

MappedTraceFile::~MappedTraceFile()
{
#ifdef SIGIL_HAVE_MMAP
    if (map_ != nullptr)
        ::munmap(map_, mapLen_);
#endif
}

// ---------------------------------------------------------------------
// Durable trace writer
// ---------------------------------------------------------------------

#ifdef SIGIL_HAVE_MMAP

/**
 * Unbuffered streambuf over a POSIX fd: every put reaches write(2)
 * immediately (no userspace buffer a SIGKILL could strand), with an
 * optional byte-interval fsync policy on top.
 */
class DurableTraceWriter::FdBuf : public std::streambuf
{
  public:
    FdBuf(int fd, std::size_t fsync_interval) noexcept
        : fd_(fd), interval_(fsync_interval)
    {
    }

    ~FdBuf() override
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    /** Hand the fd to finalize(); the buf stops owning it. */
    int
    releaseFd() noexcept
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    std::uint64_t syncs() const noexcept { return syncs_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (traits_type::eq_int_type(ch, traits_type::eof()))
            return traits_type::not_eof(ch);
        char c = traits_type::to_char_type(ch);
        return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        std::streamsize done = 0;
        while (done < n) {
            ssize_t got = ::write(fd_, s + done,
                                  static_cast<std::size_t>(n - done));
            if (got < 0) {
                if (errno == EINTR)
                    continue;
                return done;
            }
            done += got;
        }
        if (interval_ != 0) {
            sinceSync_ += static_cast<std::size_t>(n);
            if (sinceSync_ >= interval_)
                doSync();
        }
        return done;
    }

    int
    sync() override
    {
        // std::ostream::flush() lands here: make it a real fsync so a
        // recorder's finish() leaves the capture on stable storage.
        return doSync();
    }

  private:
    int
    doSync()
    {
        sinceSync_ = 0;
        if (fd_ < 0)
            return 0;
        ++syncs_;
        return ::fsync(fd_) == 0 ? 0 : -1;
    }

    int fd_;
    std::size_t interval_;
    std::size_t sinceSync_ = 0;
    std::uint64_t syncs_ = 0;
};

DurableTraceWriter::DurableTraceWriter(const std::string &path,
                                       std::size_t fsync_interval_bytes)
    : path_(path), tmpPath_(path + ".tmp")
{
    int fd = ::open(tmpPath_.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    if (fd < 0) {
        error_ = "cannot create '" + tmpPath_ + "': ";
        error_ += std::strerror(errno);
        return;
    }
    buf_ = std::make_unique<FdBuf>(fd, fsync_interval_bytes);
    os_ = std::make_unique<std::ostream>(buf_.get());
    ok_ = true;
}

DurableTraceWriter::~DurableTraceWriter() = default;

std::uint64_t
DurableTraceWriter::syncCount() const
{
    return buf_ ? buf_->syncs() : 0;
}

bool
DurableTraceWriter::finalize()
{
    if (finalized_)
        return ok_;
    if (!ok_)
        return false;
    finalized_ = true;
    os_->flush();
    int fd = buf_->releaseFd();
    bool good = ::fsync(fd) == 0;
    good = ::close(fd) == 0 && good;
    if (good && ::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        error_ = "rename to '" + path_ + "' failed: ";
        error_ += std::strerror(errno);
        good = false;
    }
    if (good) {
        // The rename itself must survive a power failure: sync the
        // directory entry, not just the file contents.
        std::string dir = path_;
        std::size_t slash = dir.find_last_of('/');
        dir = slash == std::string::npos ? "." : dir.substr(0, slash);
        int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
        if (dfd >= 0) {
            ::fsync(dfd);
            ::close(dfd);
        }
    } else if (error_.empty()) {
        error_ = "fsync/close of '" + tmpPath_ + "' failed";
    }
    ok_ = good;
    return good;
}

#else // !SIGIL_HAVE_MMAP

/** Portable fallback: plain ofstream, no fsync guarantees. */
class DurableTraceWriter::FdBuf : public std::filebuf
{
  public:
    std::uint64_t syncs() const noexcept { return 0; }
};

DurableTraceWriter::DurableTraceWriter(const std::string &path,
                                       std::size_t)
    : path_(path), tmpPath_(path + ".tmp")
{
    auto buf = std::make_unique<FdBuf>();
    if (buf->open(tmpPath_,
                  std::ios::binary | std::ios::out | std::ios::trunc) ==
        nullptr) {
        error_ = "cannot create '" + tmpPath_ + "'";
        return;
    }
    buf_ = std::move(buf);
    os_ = std::make_unique<std::ostream>(buf_.get());
    ok_ = true;
}

DurableTraceWriter::~DurableTraceWriter() = default;

std::uint64_t
DurableTraceWriter::syncCount() const
{
    return 0;
}

bool
DurableTraceWriter::finalize()
{
    if (finalized_)
        return ok_;
    if (!ok_)
        return false;
    finalized_ = true;
    os_->flush();
    buf_->close();
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        error_ = "rename to '" + path_ + "' failed";
        ok_ = false;
    }
    return ok_;
}

#endif // SIGIL_HAVE_MMAP

// ---------------------------------------------------------------------
// Replay entry points
// ---------------------------------------------------------------------

ReplayReport
replayBinaryTrace(std::istream &is, Guest &guest,
                  const ReplayOptions &options)
{
    BinaryReplaySession session(is, guest, options);
    while (session.step()) {
    }
    return session.finish();
}

std::uint64_t
replayBinaryTrace(std::istream &is, Guest &guest)
{
    ReplayReport report = replayBinaryTrace(is, guest, ReplayOptions{});
    if (report.error.has_value())
        fatal("binary trace: %s", report.error->message().c_str());
    return report.eventsDelivered;
}

std::uint64_t
replayTraceFile(const std::string &path, Guest &guest)
{
    ReplayReport report = replayTraceFile(path, guest, ReplayOptions{});
    if (report.error.has_value())
        fatal("binary trace: %s", report.error->message().c_str());
    return report.eventsDelivered;
}

ReplayReport
replayTraceFile(const std::string &path, Guest &guest,
                const ReplayOptions &options)
{
    MappedTraceFile file(path);
    if (!file.ok()) {
        ReplayReport report;
        TraceError e;
        e.cause = TraceErrorCause::Io;
        e.detail = file.errorDetail();
        report.error = std::move(e);
        return report;
    }
    BinaryReplaySession session(file.view(), guest, options);
    while (session.step()) {
    }
    return session.finish();
}

std::vector<FrameInfo>
scanFrames(std::string_view trace)
{
    std::vector<FrameInfo> frames;
    std::size_t pos = 0;
    for (;;) {
        pos = findNextFrame(trace, pos);
        if (pos == std::string_view::npos)
            break;
        std::optional<FrameHeader> h = parseFrameAt(trace, pos);
        std::uint64_t frame_len = h->headerLen + h->payloadLen;
        if (pos + frame_len > trace.size()) {
            // Torn frame: the header is intact but the stored payload
            // runs past the end of the buffer — a crash cut the file
            // mid-frame. It is not fully framed (salvage replay skips
            // it as "stream ends inside a block payload"), so it must
            // not be reported as a valid block. Probe its interior for
            // sync bytes, exactly like salvage resynchronization.
            ++pos;
            continue;
        }
        FrameInfo info;
        info.offset = pos;
        info.length = frame_len;
        info.payloadLen = h->payloadLen;
        info.tag = h->tag;
        info.firstEventSeq = h->firstEventSeq;
        info.eventCount = h->eventCount;
        info.compressed = h->compressed;
        info.rawLen = h->rawLen;
        frames.push_back(info);
        pos += static_cast<std::size_t>(info.length);
        if (pos >= trace.size())
            break;
    }
    return frames;
}

} // namespace sigil::vg
