/**
 * @file
 * Shared trace fixtures for the differential and ingestion suites.
 *
 * One pseudo-random workload generator (TraceDriver) with its
 * parameters, their row name and profiler configuration, the
 * serializer every suite compares through, and byte-level builders of
 * SGB3 preambles and frames (mirroring docs/FORMATS.md §3) for traces
 * the recorder would never write.
 */

#ifndef SIGIL_TESTS_TRACE_FIXTURES_HH
#define SIGIL_TESTS_TRACE_FIXTURES_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/crc32c.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "vg/guest.hh"

namespace sigil::fixtures {

/** One workload of the generator and the profiler that analyzes it. */
struct TraceParams
{
    std::uint64_t seed;
    unsigned granularityShift;
    std::size_t maxShadowChunks;
    bool collectReuse;
    bool collectEvents;
    bool roiOnly;
    /** Tag a run of allocations over the hot window (per-object rows). */
    bool collectObjects = false;
};

/**
 * A config's row name: seed, granularity and chunk limit, then each
 * collection flag that is set.
 */
inline std::string
paramsName(const TraceParams &p)
{
    std::string name = "seed" + std::to_string(p.seed) + "_g" +
                       std::to_string(p.granularityShift) + "_max" +
                       std::to_string(p.maxShadowChunks);
    if (p.collectReuse)
        name += "_reuse";
    if (p.collectEvents)
        name += "_events";
    if (p.roiOnly)
        name += "_roi";
    if (p.collectObjects)
        name += "_objects";
    return name;
}

/**
 * gtest prints a parameter as its row name, so test listings (and the
 * ctest IDs built from them) carry no byte dump of the struct.
 */
inline void
PrintTo(const TraceParams &p, std::ostream *os)
{
    *os << paramsName(p);
}

inline core::SigilConfig
profilerConfig(const TraceParams &p)
{
    core::SigilConfig cfg;
    cfg.granularityShift = p.granularityShift;
    cfg.maxShadowChunks = p.maxShadowChunks;
    cfg.collectReuse = p.collectReuse;
    cfg.collectEvents = p.collectEvents;
    cfg.roiOnly = p.roiOnly;
    cfg.collectObjects = p.collectObjects;
    return cfg;
}

/**
 * The deterministic pseudo-random workload of the suites: three
 * threads, calls up to depth 6 over eight functions, ops, branches,
 * barriers (with events on) and ROI toggles (with roiOnly on).
 * Accesses are mostly a strided hot loop (the repetitive shape real
 * traces have, which SGB3's LZ stage exists for); the rest jump at
 * random, mostly within a hot 64 KiB window (chunk re-touches and, in
 * byte mode, evictions under a limit) and sometimes across a cold
 * 16 MiB one (chunk churn at either granularity). Sizes mix small
 * unaligned, medium and chunk-crossing large accesses.
 *
 * Driven as prologue(), any number of driveSegment() calls, then
 * epilogue(). All generator state lives in the driver, so a stream
 * driven in segments, with a checkpoint and a fresh guest between
 * them, is event for event the stream of one uninterrupted drive().
 */
class TraceDriver
{
  public:
    explicit TraceDriver(const TraceParams &p) : p_(p), rng_(p.seed) {}

    /** Spawn threads 1 and 2, allocate the objects, enter main. */
    void
    prologue(vg::Guest &g)
    {
        ASSERT_EQ(g.spawnThread(), 1u);
        ASSERT_EQ(g.spawnThread(), 2u);
        if (p_.collectObjects) {
            // Tag the hot window (and a little beyond) as a run of
            // allocations, so unique bytes are summed per run and
            // object.
            while (g.heapBytes() < (std::uint64_t{1} << 16) + 4096)
                g.alloc(1 + rng_.nextBounded(6000), "obj");
        }
        g.enter("main");
        if (p_.roiOnly)
            g.roiBegin();
    }

    void
    driveSegment(vg::Guest &g, int steps)
    {
        static const char *const fns[] = {"alpha", "beta", "gamma",
                                          "delta", "epsilon", "zeta",
                                          "eta", "theta"};
        for (int end = step_ + steps; step_ < end; ++step_) {
            vg::Addr addr = vg::kHeapBase;
            if (rng_.nextBounded(4) == 0)
                addr += (rng_.nextBounded(8) == 0)
                            ? rng_.nextBounded(1 << 24)
                            : rng_.nextBounded(1 << 16);
            else
                addr += static_cast<vg::Addr>(step_ % 512) * 64;
            unsigned size;
            switch (rng_.nextBounded(8)) {
            case 0:
                size = 1000 + static_cast<unsigned>(rng_.nextBounded(9000));
                break;
            case 1:
            case 2:
                size = 64 + static_cast<unsigned>(rng_.nextBounded(192));
                break;
            default:
                size = 1 + static_cast<unsigned>(rng_.nextBounded(16));
                break;
            }

            switch (rng_.nextBounded(16)) {
            case 0:
                if (g.callDepth() < 6)
                    g.enter(fns[rng_.nextBounded(8)]);
                break;
            case 1:
                if (g.callDepth() > 1)
                    g.leave();
                break;
            case 2:
                g.switchThread(
                    static_cast<vg::ThreadId>(rng_.nextBounded(3)));
                if (g.callDepth() == 0)
                    g.enter(fns[rng_.nextBounded(8)]);
                break;
            case 3:
                g.iop(1 + rng_.nextBounded(100));
                break;
            case 4:
                if (p_.collectEvents && rng_.nextBounded(4) == 0)
                    g.barrier();
                break;
            case 5:
                if (p_.roiOnly && rng_.nextBounded(4) == 0) {
                    if (inRoi_)
                        g.roiEnd();
                    else
                        g.roiBegin();
                    inRoi_ = !inRoi_;
                }
                break;
            case 6:
            case 7:
            case 8:
            case 9:
                if (g.callDepth() > 0)
                    g.write(addr, size);
                break;
            default:
                if (g.callDepth() > 0)
                    g.read(addr, size);
                break;
            }
            if (g.callDepth() > 0 && rng_.nextBounded(32) == 0)
                g.branch(rng_.nextBounded(2) == 0);
        }
    }

    /** Unwind every thread and finish the guest. */
    void
    epilogue(vg::Guest &g)
    {
        for (vg::ThreadId t = 0; t < 3; ++t) {
            g.switchThread(t);
            while (g.callDepth() > 0)
                g.leave();
        }
        g.finish();
    }

    void
    drive(vg::Guest &g, int steps)
    {
        prologue(g);
        driveSegment(g, steps);
        epilogue(g);
    }

  private:
    TraceParams p_;
    Rng rng_;
    bool inRoi_ = true;
    int step_ = 0;
};

/** A profiler's serialized outputs, the bytes every leg compares. */
struct Outputs
{
    /** writeProfile(), then one "object" line per object row. */
    std::string profile;
    /** writeEvents(). */
    std::string events;
};

/** Serialize a SigilProfiler or a ReferenceProfiler. */
template <typename Profiler>
Outputs
serialize(const Profiler &prof)
{
    std::ostringstream pos;
    const core::SigilProfile profile = prof.takeProfile();
    core::writeProfile(pos, profile);
    for (const core::SigilProfile::ObjectRow &o : profile.objects) {
        pos << "object " << o.tag << ' ' << o.base << ' ' << o.size << ' '
            << o.readBytes << ' ' << o.writeBytes << ' '
            << o.uniqueReadBytes << '\n';
    }
    std::ostringstream eos;
    core::writeEvents(eos, prof.events());
    return {pos.str(), eos.str()};
}

/** Silence expected warnings (salvage resyncs, frame unwinds). */
class QuietLogs
{
  public:
    QuietLogs() : saved_(setLogSink(&swallow)) {}
    ~QuietLogs() { setLogSink(saved_); }

  private:
    static void
    swallow(LogLevel level, const std::string &msg)
    {
        // Keep aborting paths diagnosable; only chatter is silenced.
        if (level == LogLevel::Panic || level == LogLevel::Fatal)
            std::fprintf(stderr, "%s\n", msg.c_str());
    }
    LogSink saved_;
};

inline void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

inline void
putU32le(std::string &out, std::uint32_t v)
{
    out.push_back(static_cast<char>(v));
    out.push_back(static_cast<char>(v >> 8));
    out.push_back(static_cast<char>(v >> 16));
    out.push_back(static_cast<char>(v >> 24));
}

inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** @name Frame tags (docs/FORMATS.md §3) */
/// @{
constexpr std::uint8_t kTagEnd = 0x00;
constexpr std::uint8_t kTagFunctions = 0x01;
constexpr std::uint8_t kTagEvents = 0x02;
/// @}

/** Magic, version 1 and program name: the preamble of a framed trace. */
inline std::string
tracePreamble(const std::string &name, const char *magic = "SGB3")
{
    std::string t(magic, 4);
    putVarint(t, 1);
    putVarint(t, name.size());
    t += name;
    return t;
}

/** Build one CRC-valid SGB3 frame holding a raw (uncompressed) payload. */
inline std::string
makeFrame(std::uint8_t tag, std::uint64_t block_seq,
          std::uint64_t first_event, std::uint64_t event_count,
          const std::string &payload)
{
    std::string f = "\xa7SB\xb3";
    f.push_back(static_cast<char>(tag));
    putVarint(f, block_seq);
    putVarint(f, first_event);
    putVarint(f, event_count);
    putVarint(f, payload.size());
    f.push_back('\0'); // flags: stored raw
    putVarint(f, payload.size());
    putU32le(f, crc32c(payload.data(), payload.size()));
    putU32le(f, crc32c(f.data(), f.size()));
    f += payload;
    return f;
}

} // namespace sigil::fixtures

#endif // SIGIL_TESTS_TRACE_FIXTURES_HH
