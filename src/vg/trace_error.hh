/**
 * @file
 * Structured errors and recovery policy for trace and profile
 * ingestion.
 *
 * The record-once/analyze-many workflow makes a trace file the most
 * valuable artifact of a profiling run: a truncated or bit-flipped
 * capture must not take the analysis process down with it. Parsers
 * therefore report malformed input as a TraceError — cause, absolute
 * byte offset, block index, line number — instead of exiting, and a
 * replay caller picks a ReplayPolicy:
 *
 *  - Strict: stop at the first error; the error (with its exact
 *    position) is returned in the ReplayReport.
 *  - Salvage: skip the damaged region, resynchronize on the next valid
 *    block boundary, reconcile guest state (function table, call
 *    depth, ROI), and keep going. Every skip is accounted in the
 *    ReplayReport so downstream analysis knows exactly how much of
 *    the stream it is missing.
 */

#ifndef SIGIL_VG_TRACE_ERROR_HH
#define SIGIL_VG_TRACE_ERROR_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace sigil::vg {

/** What went wrong while decoding a trace, profile, or checkpoint. */
enum class TraceErrorCause
{
    Io,             ///< underlying stream read failed
    BadMagic,       ///< file does not start with a known magic
    BadVersion,     ///< known magic, unsupported version
    Truncated,      ///< stream ended inside a record or block
    HeaderCrc,      ///< block header checksum mismatch
    PayloadCrc,     ///< block payload checksum mismatch
    VarintOverflow, ///< varint longer than 10 bytes / 64 bits
    BoundsExceeded, ///< record claims more bytes than its block holds
    UnknownSection, ///< unrecognized section tag
    UnknownOpcode,  ///< unrecognized event opcode
    UnknownFunction,///< event references an id with no function record
    Decompress,     ///< compressed payload does not decompress (SGB3)
    BadRecord,      ///< malformed record body (text formats: bad token)
    StateMismatch,  ///< checkpoint does not match the replay config
    Unsupported,    ///< valid input the reader cannot process
};

/** Human-readable name of a cause ("truncated", "payload-crc", ...). */
const char *traceErrorCauseName(TraceErrorCause cause);

/** One structured ingestion error with its position in the input. */
struct TraceError
{
    TraceErrorCause cause = TraceErrorCause::Io;

    /** Absolute byte offset in the input stream, if known. */
    std::uint64_t byteOffset = 0;

    /** Index of the enclosing event block (binary formats); -1 n/a. */
    std::int64_t blockIndex = -1;

    /** 1-based line number (text formats); 0 = not applicable. */
    std::uint64_t line = 0;

    /** Cause-specific detail, including the offending token if any. */
    std::string detail;

    /** Full message: cause, position, and detail. */
    std::string message() const;
};

/** How a replay reacts to malformed input. */
enum class ReplayPolicy
{
    Strict,  ///< stop at the first error
    Salvage, ///< skip to the next valid block and continue
};

/** Options of a fault-tolerant replay. */
struct ReplayOptions
{
    ReplayPolicy policy = ReplayPolicy::Strict;

    /** Individual errors kept in ReplayReport::errors (salvage). */
    std::size_t maxRecordedErrors = 32;
};

/**
 * Accounting of one replay: what was delivered, what was lost, and
 * why. In salvage mode `eventsDelivered + eventsSkipped` equals the
 * recorded event total whenever the trailer (or the block headers
 * past the damage) could be read; `truncated` flags the case where the
 * tail is simply gone and the loss cannot be bounded from the file.
 */
struct ReplayReport
{
    /** @name Delivered work */
    /// @{
    std::uint64_t eventsDelivered = 0;
    std::uint64_t blocksDelivered = 0;
    /// @}

    /** @name Quantified loss (salvage mode) */
    /// @{
    std::uint64_t eventsSkipped = 0;
    std::uint64_t blocksSkipped = 0;
    std::uint64_t bytesSkipped = 0;
    /** Duplicate/stale blocks dropped without loss of new events. */
    std::uint64_t blocksStale = 0;
    /** Forward scans that found a new valid block header. */
    std::uint64_t resyncs = 0;
    /// @}

    /** @name Guest-state reconciliation (salvage mode) */
    /// @{
    /** Leave events dropped because the call stack was already empty. */
    std::uint64_t leavesDropped = 0;
    /** ROI transitions dropped because the state already matched. */
    std::uint64_t roiDropped = 0;
    /** Placeholder functions interned for ids lost with their block. */
    std::uint64_t functionsSynthesized = 0;
    /// @}

    /** Total events the recorder claims to have written (trailer). */
    std::uint64_t totalEventsRecorded = 0;
    /** True when the end marker / trailer was reached. */
    bool sawTrailer = false;
    /** True when the stream ended before the end marker. */
    bool truncated = false;
    /**
     * True when the recorder's clean-shutdown trailer frame was seen:
     * the recording process reached finish() and
     * flushed everything, as opposed to crashing or being killed
     * mid-run. A salvageable file without this flag is a crash
     * capture — every fully-framed event is still recovered, but the
     * tail of the run is missing by construction.
     */
    bool cleanShutdown = false;

    /** First maxRecordedErrors errors encountered (salvage mode). */
    std::vector<TraceError> errors;

    /** The stopping error (strict mode, or an unrecoverable one). */
    std::optional<TraceError> error;

    /** True when the replay finished without a stopping error. */
    bool ok() const { return !error.has_value(); }

    /** True when any corruption at all was observed. */
    bool
    sawCorruption() const
    {
        return !errors.empty() || error.has_value() || truncated ||
               blocksSkipped > 0 || bytesSkipped > 0;
    }

    /** One-line human-readable summary of the replay. */
    std::string summary() const;

    /**
     * Full multi-line rendering: the summary line plus reconciliation
     * counters, trailer/shutdown status, and every recorded error —
     * everything needed to diagnose a degraded replay without a
     * debugger.
     */
    std::string toString() const;
};

/** Streams toString(). */
std::ostream &operator<<(std::ostream &os, const ReplayReport &report);

} // namespace sigil::vg

#endif // SIGIL_VG_TRACE_ERROR_HH
