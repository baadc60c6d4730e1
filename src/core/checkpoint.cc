#include "checkpoint.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>
#include <utility>

#include "support/crc32c.hh"
#include "support/logging.hh"
#include "support/serial.hh"
#include "vg/trace_io.hh"

namespace sigil::core {

namespace {

constexpr char kCheckpointMagic[4] = {'S', 'G', 'C', 'P'};
constexpr std::uint8_t kCheckpointVersion = 1;

/** Bytes of the trace preamble hashed into the checkpoint binding. */
constexpr std::size_t kBindingBytes = 256;

std::string
slurpStream(std::istream &is)
{
    std::string data;
    char buf[256 * 1024];
    while (is.read(buf, sizeof(buf)) || is.gcount() > 0)
        data.append(buf, static_cast<std::size_t>(is.gcount()));
    return data;
}

/**
 * Identity of the trace a checkpoint belongs to: its size plus a CRC
 * of its preamble. Resuming against a different trace is refused.
 */
struct TraceBinding
{
    std::uint64_t traceBytes = 0;
    std::uint32_t preambleCrc = 0;

    static TraceBinding
    of(std::string_view trace)
    {
        TraceBinding b;
        b.traceBytes = trace.size();
        b.preambleCrc =
            crc32c(trace.data(), std::min(trace.size(), kBindingBytes));
        return b;
    }

    bool
    operator==(const TraceBinding &o) const
    {
        return traceBytes == o.traceBytes && preambleCrc == o.preambleCrc;
    }
};

/**
 * Atomically replace the checkpoint at `path`, rotating the previous
 * one to "<path>.prev". Returns the bytes written, 0 on failure (a
 * failed write never destroys the existing checkpoint).
 */
std::uint64_t
writeCheckpointFile(const std::string &path, const std::string &payload)
{
    ByteSink header;
    header.raw(kCheckpointMagic, sizeof(kCheckpointMagic));
    header.u8(kCheckpointVersion);
    header.u64(payload.size());
    header.u32(crc32c(payload.data(), payload.size()));

    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            warn("checkpoint: cannot open %s for writing", tmp.c_str());
            return 0;
        }
        os.write(header.bytes().data(),
                 static_cast<std::streamsize>(header.size()));
        os.write(payload.data(),
                 static_cast<std::streamsize>(payload.size()));
        os.flush();
        if (!os) {
            warn("checkpoint: short write to %s", tmp.c_str());
            std::remove(tmp.c_str());
            return 0;
        }
    }
    // Rotate, newest last: path -> path.prev, tmp -> path. rename(2)
    // is atomic, so a crash at any point leaves a valid file at one of
    // the two names.
    std::rename(path.c_str(), (path + ".prev").c_str());
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("checkpoint: cannot rename %s into place", tmp.c_str());
        std::remove(tmp.c_str());
        return 0;
    }
    return header.size() + payload.size();
}

/** Load and validate one checkpoint file; nullopt when unusable. */
std::optional<std::string>
loadCheckpointFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::string data = slurpStream(is);

    ByteSource src(data);
    char magic[4];
    src.raw(magic, sizeof(magic));
    if (!src.ok() ||
        std::string_view(magic, 4) != std::string_view(kCheckpointMagic, 4))
        return std::nullopt;
    if (src.u8() != kCheckpointVersion)
        return std::nullopt;
    std::uint64_t len = src.u64();
    std::uint32_t crc = src.u32();
    if (!src.ok() || len != data.size() - src.pos())
        return std::nullopt;
    std::string payload = data.substr(src.pos());
    if (crc32c(payload.data(), payload.size()) != crc)
        return std::nullopt;
    return payload;
}

/** Serialize the complete replay state (binding + guest + tool + reader). */
std::string
buildSnapshot(const TraceBinding &binding, vg::Guest &guest,
              SigilProfiler &profiler, vg::BinaryReplaySession &session)
{
    ByteSink sink;
    sink.u64(binding.traceBytes);
    sink.u32(binding.preambleCrc);
    guest.saveState(sink);
    profiler.saveState(sink);
    session.saveReaderState(sink);
    return sink.take();
}

/** Inverse of buildSnapshot(); false when the payload does not match. */
bool
restoreSnapshot(const std::string &payload, const TraceBinding &binding,
                vg::Guest &guest, SigilProfiler &profiler,
                vg::BinaryReplaySession &session)
{
    ByteSource src(payload);
    TraceBinding saved;
    saved.traceBytes = src.u64();
    saved.preambleCrc = src.u32();
    if (!src.ok() || !(saved == binding))
        return false;
    return guest.restoreState(src) && profiler.restoreState(src) &&
           session.restoreReaderState(src) && src.ok();
}

/**
 * Whether restoreSnapshot() accepts the payload, tried on scratch
 * copies of the replay state. The restores write as they parse, so a
 * payload rejected part-way (a foreign profiler body version, another
 * configuration) would otherwise leave the caller's guest or profiler
 * half-restored — and a replay that falls back to the start must
 * begin from pristine state.
 */
bool
snapshotRestores(const std::string &payload, const TraceBinding &binding,
                 std::string_view data, const vg::Guest &guest,
                 const SigilProfiler &profiler,
                 const vg::ReplayOptions &options)
{
    // Declared so the guest is destroyed before the tool it holds.
    SigilProfiler scratch_profiler(profiler.config());
    vg::Guest scratch_guest(guest.programName(), guest.config());
    scratch_guest.addTool(&scratch_profiler);
    vg::BinaryReplaySession scratch_session(data, scratch_guest, options);
    return restoreSnapshot(payload, binding, scratch_guest,
                           scratch_profiler, scratch_session);
}

/**
 * Shared core: checkpointed replay directly over a byte view (an
 * mmap'd file or a slurped stream). The binding hashes the raw stored
 * bytes, so it is identical whether the trace arrived as a stream, a
 * mapping, or a file of compressed frames.
 */
vg::ReplayReport
replayViewWithCheckpoints(std::string_view data, vg::Guest &guest,
                          SigilProfiler &profiler,
                          const vg::ReplayOptions &options,
                          const CheckpointConfig &config,
                          CheckpointStats *stats)
{
    CheckpointStats local;
    CheckpointStats &st = stats != nullptr ? *stats : local;
    st = CheckpointStats{};

    const TraceBinding binding = TraceBinding::of(data);

    vg::BinaryReplaySession session(data, guest, options);

    // Resume from the newest valid checkpoint that matches this trace
    // and configuration; a corrupt or torn newest file falls back to
    // the rotated previous one. A candidate is restored into the real
    // replay state only once a scratch restore has accepted it, so a
    // rejected candidate never leaves that state half-written.
    if (!config.path.empty()) {
        for (const std::string &candidate :
             {config.path, config.path + ".prev"}) {
            auto payload = loadCheckpointFile(candidate);
            if (!payload)
                continue;
            if (snapshotRestores(*payload, binding, data, guest, profiler,
                                 options) &&
                restoreSnapshot(*payload, binding, guest, profiler,
                                session)) {
                st.resumed = true;
                st.resumeBlocks = session.blocksProcessed();
                break;
            }
            warn("checkpoint: %s does not match this replay, ignoring",
                 candidate.c_str());
        }
    }

    const bool periodic =
        !config.path.empty() && config.intervalBlocks != 0;
    std::uint64_t next_checkpoint =
        periodic ? session.blocksProcessed() + config.intervalBlocks : 0;

    while (session.step()) {
        if (periodic && session.blocksProcessed() >= next_checkpoint) {
            std::uint64_t bytes = writeCheckpointFile(
                config.path,
                buildSnapshot(binding, guest, profiler, session));
            if (bytes != 0) {
                ++st.checkpointsWritten;
                st.lastCheckpointBytes = bytes;
            }
            next_checkpoint =
                session.blocksProcessed() + config.intervalBlocks;
        }
    }

    return session.finish();
}

} // namespace

vg::ReplayReport
replayWithCheckpoints(std::istream &trace, vg::Guest &guest,
                      SigilProfiler &profiler,
                      const vg::ReplayOptions &options,
                      const CheckpointConfig &config,
                      CheckpointStats *stats)
{
    const std::string data = slurpStream(trace);
    return replayViewWithCheckpoints(data, guest, profiler, options,
                                     config, stats);
}

vg::ReplayReport
replayFileWithCheckpoints(const std::string &tracePath, vg::Guest &guest,
                          SigilProfiler &profiler,
                          const vg::ReplayOptions &options,
                          const CheckpointConfig &config,
                          CheckpointStats *stats)
{
    vg::MappedTraceFile file(tracePath);
    if (!file.ok()) {
        if (stats != nullptr)
            *stats = CheckpointStats{};
        vg::ReplayReport report;
        vg::TraceError e;
        e.cause = vg::TraceErrorCause::Io;
        e.detail = file.errorDetail();
        report.error = std::move(e);
        return report;
    }
    return replayViewWithCheckpoints(file.view(), guest, profiler,
                                     options, config, stats);
}

} // namespace sigil::core
