/**
 * @file
 * Raw guest-event trace recording and replay.
 *
 * BinaryTraceRecorder is a Tool that streams the primitive event
 * sequence (function enters/leaves, reads, writes, ops, branches,
 * thread switches, barriers, ROI marks) plus the function name table in
 * the block-framed "SGB3" format: each block carries a frame header
 * with an explicit payload length, CRC32C checksums over both the
 * header and the payload, and an LZ-compressed payload whenever that
 * is smaller, so a reader validates every block before dispatching a
 * single event from it.
 *
 * replayBinaryTrace()/replayTraceFile() drive a fresh Guest — with any
 * set of analysis tools attached — through exactly the same event
 * sequence. They read SGB3 only; the unframed SGB1 and uncompressed
 * SGB2 formats of earlier releases fail as bad magic. The ReplayOptions
 * overloads add fault tolerance: under ReplayPolicy::Salvage a damaged
 * region is skipped, the reader resynchronizes on the next valid block
 * header, guest state is reconciled, and the loss is quantified in the
 * returned ReplayReport instead of killing the process. This is the paper's
 * "collect once" model taken to its limit: one expensive instrumented
 * run can feed any number of later analyses, so the recorded trace is
 * the artifact that must survive.
 */

#ifndef SIGIL_VG_TRACE_IO_HH
#define SIGIL_VG_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/serial.hh"
#include "vg/guest.hh"
#include "vg/tool.hh"
#include "vg/trace_error.hh"

namespace sigil::vg {

/**
 * Streams the raw event sequence as an SGB3 trace, on the calling
 * thread (docs/FORMATS.md §3):
 *
 *   "SGB3" magic, varint version, varint len + program name, then
 *   self-describing frames, each: 4 sync bytes, a tag byte, varint
 *   block sequence number, varint first event sequence, varint event
 *   count, varint stored payload length, a flags byte (bit 0: payload
 *   stored LZ-compressed, see support/lz.hh), varint uncompressed
 *   length, the payload CRC32C, and a CRC32C over the frame header
 *   itself. The CRCs cover the stored bytes, so frame validation never
 *   decompresses; frames that do not shrink are stored raw. The
 *   address delta chain resets at every block boundary so any block
 *   can be decoded (or skipped) independently.
 *
 * Event encoding inside a block (one opcode byte each): reads/writes
 * carry a zigzag varint delta from the previous access address plus a
 * varint size; ops carry two varints; enters a varint function id;
 * thread switches a varint thread id; branches, barriers, and ROI
 * marks fold their flag into the opcode.
 */
class BinaryTraceRecorder : public Tool
{
  public:
    /** Default events per block before the block is framed and written. */
    static constexpr std::size_t kBlockEvents = 4096;

    /**
     * The stream must outlive the recorder (open it in binary mode).
     *
     * @param block_events Events per block; smaller blocks bound the
     *        loss radius of a corrupted block (and the checkpoint
     *        interval granularity) at a small framing-overhead cost.
     */
    explicit BinaryTraceRecorder(std::ostream &os,
                                 std::size_t block_events = kBlockEvents);

    void attach(const Guest &guest) override;
    void fnEnter(ContextId ctx, CallNum call) override;
    void fnLeave(ContextId ctx, CallNum call) override;
    void memRead(Addr addr, unsigned size) override;
    void memWrite(Addr addr, unsigned size) override;
    void op(std::uint64_t iops, std::uint64_t flops) override;
    void branch(bool taken) override;
    void threadSwitch(ThreadId tid) override;
    void barrier() override;
    void roi(bool active) override;
    void finish() override;

    /** Events written so far. */
    std::uint64_t eventsWritten() const { return events_; }

  private:
    void ensureFunction(FunctionId fn);
    void access(std::uint8_t opcode, Addr addr, unsigned size);
    void event(std::uint8_t opcode);
    /** Close the event encoded up to end; frames a full block. */
    void endEvent(char *end);
    void flushBlock();
    void writeFrame(std::uint8_t tag, std::string_view payload,
                    std::uint64_t first_event, std::uint64_t event_count);

    std::ostream &os_;
    std::size_t maxBlockEvents_;
    /** Encoded events of the open block, sized for the worst case. */
    std::unique_ptr<char[]> block_;
    char *cur_;              ///< end of the open block's events
    std::string pendingFns_; ///< fn records to emit before the block
    /** Reused frame buffer: header room, then the stored payload. */
    std::vector<char> frame_;
    std::size_t blockEvents_ = 0;
    std::uint64_t blockSeq_ = 0; ///< frames written
    std::uint64_t prevAddr_ = 0;
    std::vector<bool> emitted_;
    std::uint64_t events_ = 0;
    bool finished_ = false;
};

/**
 * Durable file sink for trace recording: crash-safe on the outside,
 * prompt on the inside.
 *
 * Writes go to `<path>.tmp` through an unbuffered file descriptor, so
 * every frame the recorder emits reaches the kernel immediately — a
 * SIGKILL loses at most the frame being written, which salvage replay
 * skips by construction. An optional fsync policy bounds what a power
 * failure can lose: after every `fsync_interval_bytes` written the
 * file is fsync'd (0 = only at finalize).
 *
 * finalize() makes the capture atomic: fsync, close, rename onto the
 * final path, and fsync the directory, so `path` either does not exist
 * or names a complete capture ending in the clean-shutdown trailer. A
 * crash before finalize() leaves only `<path>.tmp` — a salvageable
 * crash capture that never masquerades as a finished one.
 */
class DurableTraceWriter
{
  public:
    explicit DurableTraceWriter(const std::string &path,
                                std::size_t fsync_interval_bytes = 0);

    /** Without finalize(): closes the fd, leaves `<path>.tmp` behind. */
    ~DurableTraceWriter();

    DurableTraceWriter(const DurableTraceWriter &) = delete;
    DurableTraceWriter &operator=(const DurableTraceWriter &) = delete;

    /** False when the tmp file could not be created. */
    bool ok() const { return ok_; }

    /** Why ok() is false (or finalize() failed). */
    const std::string &errorDetail() const { return error_; }

    /** The stream to hand to a recorder. Valid while this lives. */
    std::ostream &stream() { return *os_; }

    /** Where bytes land until finalize(). */
    const std::string &tempPath() const { return tmpPath_; }

    /** fsync + close + rename onto the final path. Idempotent. */
    bool finalize();

    /** fsyncs issued so far (including the finalize one). */
    std::uint64_t syncCount() const;

  private:
    class FdBuf;
    std::unique_ptr<FdBuf> buf_;
    std::unique_ptr<std::ostream> os_;
    std::string path_;
    std::string tmpPath_;
    std::string error_;
    bool ok_ = false;
    bool finalized_ = false;
};

/**
 * Replay a binary SGB3 trace into a guest. The guest must be freshly
 * constructed; attach analysis tools before calling. Calls
 * guest.finish() at the trace's end. fatal() on malformed input; any
 * other magic (a text trace or the legacy SGB1 and SGB2 formats
 * included) fails as TraceErrorCause::BadMagic.
 */
std::uint64_t replayBinaryTrace(std::istream &is, Guest &guest);

/**
 * Fault-tolerant binary replay. Strict stops (and reports) at the
 * first error with its byte offset and block index; under Salvage,
 * corruption is skipped block-by-block (resynchronizing on the frame
 * sync bytes) and quantified in the report.
 */
ReplayReport replayBinaryTrace(std::istream &is, Guest &guest,
                               const ReplayOptions &options);

/**
 * Zero-copy trace input: maps a trace file read-only into the address
 * space so replay decodes frame payloads in place, with a graceful
 * read()-stream fallback for pipes, FIFOs, and anything else mmap
 * cannot handle (the fallback slurps into an owned buffer, preserving
 * behaviour at the cost of the copy). The view stays valid for the
 * lifetime of this object.
 */
class MappedTraceFile
{
  public:
    explicit MappedTraceFile(const std::string &path);
    ~MappedTraceFile();

    MappedTraceFile(const MappedTraceFile &) = delete;
    MappedTraceFile &operator=(const MappedTraceFile &) = delete;

    /** False when the file could not be opened or read at all. */
    bool ok() const { return ok_; }

    /** True when the bytes are a zero-copy memory mapping. */
    bool mapped() const { return map_ != nullptr; }

    /** The file's bytes (empty for an empty file). */
    std::string_view view() const { return view_; }

    /** Why ok() is false. */
    const std::string &errorDetail() const { return error_; }

  private:
    void *map_ = nullptr;
    std::size_t mapLen_ = 0;
    std::string owned_;
    std::string_view view_;
    std::string error_;
    bool ok_ = false;
};

/** Replay a binary trace file (mapped when possible). */
std::uint64_t replayTraceFile(const std::string &path, Guest &guest);

/** Fault-tolerant variant of replayTraceFile(). */
ReplayReport replayTraceFile(const std::string &path, Guest &guest,
                             const ReplayOptions &options);

/**
 * Incremental SGB3 replay: processes the trace one frame at a
 * time so a driver can interleave work between blocks — the
 * checkpoint layer uses this to snapshot replay state at block
 * boundaries and to resume a replay mid-stream.
 *
 * Each step() CRC-verifies, decompresses and decodes one frame
 * inline, then delivers its events in stream order (DESIGN.md §4.5).
 */
class BinaryReplaySession
{
  public:
    /** Slurps the stream; the guest must outlive the session. */
    BinaryReplaySession(std::istream &is, Guest &guest,
                        const ReplayOptions &options = ReplayOptions{});

    /**
     * Zero-copy variant: replays directly out of `data` (for example a
     * MappedTraceFile view), which must stay valid and unchanged for
     * the session's lifetime.
     */
    BinaryReplaySession(std::string_view data, Guest &guest,
                        const ReplayOptions &options = ReplayOptions{});

    ~BinaryReplaySession();

    BinaryReplaySession(const BinaryReplaySession &) = delete;
    BinaryReplaySession &operator=(const BinaryReplaySession &) = delete;

    /**
     * Process the next frame (salvaging past damage first if
     * configured). Returns false once the trace is exhausted, the end
     * marker was seen, or a strict-mode error stopped the replay.
     */
    bool step();

    /** True when step() has nothing left to do. */
    bool done() const;

    /** Running accounting (final after finish()). */
    const ReplayReport &report() const;

    /**
     * Finish the replay: calls guest.finish() (unless a strict error
     * stopped the session) and returns the final report.
     */
    ReplayReport finish();

    /** Event blocks fully processed so far (delivered or skipped). */
    std::uint64_t blocksProcessed() const;

    /** Absolute byte offset of the next unread frame. */
    std::uint64_t nextOffset() const;

    /**
     * Serialize the reader-side replay state (position, function-id
     * map, accounting) so a checkpoint can resume mid-stream. Only
     * meaningful at a step() boundary.
     */
    void saveReaderState(ByteSink &sink) const;

    /**
     * Restore reader state saved by saveReaderState() over the same
     * trace. The guest must already be restored to the matching
     * snapshot. Returns false (leaving the session unusable) if the
     * state is corrupt or inconsistent with the trace.
     */
    bool restoreReaderState(ByteSource &src);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** One frame located in a trace buffer. */
struct FrameInfo
{
    std::uint64_t offset = 0; ///< absolute offset of the sync bytes
    std::uint64_t length = 0; ///< frame header + stored payload bytes
    std::uint8_t tag = 0;
    std::uint64_t firstEventSeq = 0;
    std::uint64_t eventCount = 0;
    bool compressed = false;      ///< payload stored LZ-compressed
    std::uint64_t payloadLen = 0; ///< stored payload bytes
    std::uint64_t rawLen = 0;     ///< uncompressed payload bytes
};

/**
 * Locate every valid, fully framed frame in a trace image, from its
 * first frame header on (a preamble, damaged or not, is skipped). Used
 * by tests to aim corruption at specific frames and to reason about
 * frame layout; returns an empty vector for input without frames.
 */
std::vector<FrameInfo> scanFrames(std::string_view trace);

} // namespace sigil::vg

#endif // SIGIL_VG_TRACE_IO_HH
