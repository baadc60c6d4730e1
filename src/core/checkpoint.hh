/**
 * @file
 * Checkpoint/resume for long trace replays.
 *
 * A replay over a large trace can be interrupted — machine reboot,
 * preemption, a crash in unrelated code — and restarting a multi-hour
 * analysis from the beginning wastes the "collect once, analyze many"
 * economics the trace format is built around. The checkpoint layer
 * drives an SGB2 or SGB3 replay through BinaryReplaySession and, every
 * N event blocks, snapshots the complete replay state to a file:
 *
 *   - the guest (function registry, context tree, call stacks, virtual
 *     clock, allocations, ROI flag),
 *   - the analysis tool (profiler aggregates, edges, histograms, event
 *     trace, open segments, and every live shadow chunk in recency
 *     order),
 *   - the reader (stream position, trace-id → function map, salvage
 *     accounting).
 *
 * File layout (docs/FORMATS.md §5): "SGCP" magic, u8 version, u64
 * payload length, u32 CRC32C of the payload, payload. The payload
 * additionally records the trace's size and preamble CRC so a
 * checkpoint cannot be resumed against a different trace. Writes are
 * atomic (tmp file + rename) and the previous checkpoint is rotated to
 * "<path>.prev", so a crash mid-write leaves at least one valid
 * checkpoint behind; resume tries the newest first and falls back.
 *
 * Restored replays are bit-identical to uninterrupted ones: the
 * profiler restores shadow chunks in LRU order (reproducing future
 * eviction decisions) and the framed formats reset their address-delta
 * chain at every block boundary (so decoding resumes cleanly mid-stream).
 */

#ifndef SIGIL_CORE_CHECKPOINT_HH
#define SIGIL_CORE_CHECKPOINT_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/sigil_profiler.hh"
#include "vg/guest.hh"
#include "vg/trace_error.hh"

namespace sigil::core {

/** Checkpointing policy of a replay. */
struct CheckpointConfig
{
    /** Checkpoint file; "<path>.prev" holds the rotated previous one. */
    std::string path;

    /** Event blocks between snapshots (0 disables periodic writes). */
    std::uint64_t intervalBlocks = 64;
};

/** What the checkpoint layer did during one replay. */
struct CheckpointStats
{
    /** Snapshots written this run. */
    std::uint64_t checkpointsWritten = 0;

    /** Size of the most recent snapshot, bytes. */
    std::uint64_t lastCheckpointBytes = 0;

    /** True when the replay resumed from an existing checkpoint. */
    bool resumed = false;

    /** Event blocks that were skipped over by the resume. */
    std::uint64_t resumeBlocks = 0;
};

/**
 * Replay an SGB2 or SGB3 trace with periodic checkpoints.
 *
 * The guest must be freshly constructed with the profiler attached.
 * If config.path holds a checkpoint that matches this trace and
 * configuration, the replay resumes from it; otherwise it starts from
 * the beginning. Either way a snapshot is written every
 * config.intervalBlocks event blocks.
 *
 * @return the final ReplayReport (cumulative across resume).
 */
vg::ReplayReport
replayWithCheckpoints(std::istream &trace, vg::Guest &guest,
                      SigilProfiler &profiler,
                      const vg::ReplayOptions &options,
                      const CheckpointConfig &config,
                      CheckpointStats *stats = nullptr);

/**
 * Checkpointed replay straight from a trace file. The file is mmap'd
 * when possible (vg::MappedTraceFile), so replay decodes in place with
 * no slurp copy; checkpoint binding and resume semantics are identical
 * to the stream overload — the binding hashes the stored bytes, which
 * SGB3 compression does not change between record and replay. Returns
 * an Io-cause error report if the file cannot be opened.
 */
vg::ReplayReport
replayFileWithCheckpoints(const std::string &tracePath, vg::Guest &guest,
                          SigilProfiler &profiler,
                          const vg::ReplayOptions &options,
                          const CheckpointConfig &config,
                          CheckpointStats *stats = nullptr);

} // namespace sigil::core

#endif // SIGIL_CORE_CHECKPOINT_HH
