/**
 * @file
 * Robustness suite for the hardened trace-ingestion path.
 *
 * Exercises the ingestion contract end to end: the recorded SGB3
 * framing and the SGB2 framing of earlier releases (transcoded from the
 * same recording, tests/trace_fixtures.hh) replay identically, legacy
 * SGB1 and text traces fail cleanly as bad magic, bounds-checked
 * decoding of adversarial bytes (including CRC-valid frames with
 * hostile payloads), salvage recovery from truncation at every byte
 * offset and from any single corrupted block, the deterministic
 * fault-injection sweep ("never crash, always account") in both
 * framings, checkpoint/resume bit-identity across the shadow
 * configurations, the shadow-pressure degradation ladder, and the
 * structured line/offset error reporting of the profile and event
 * parsers. Also the binary round trips: ROI marks survive recording,
 * replayTraceFile() sniffs SGB3 and SGB2 alike, and the fatal replay
 * entry point rejects garbage and truncated input.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/crc32c.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/serial.hh"
#include "vg/fault_injection.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

#include "trace_fixtures.hh"

namespace sigil {
namespace {

using namespace fixtures;

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

struct TraceParams
{
    std::uint64_t seed;
    unsigned granularityShift;
    std::size_t maxShadowChunks;
    bool collectReuse;
    bool collectEvents;
    bool roiOnly;
};

core::SigilConfig
profilerConfig(const TraceParams &p)
{
    core::SigilConfig cfg;
    cfg.granularityShift = p.granularityShift;
    cfg.maxShadowChunks = p.maxShadowChunks;
    cfg.collectReuse = p.collectReuse;
    cfg.collectEvents = p.collectEvents;
    cfg.roiOnly = p.roiOnly;
    return cfg;
}

/** Drive one deterministic pseudo-random workload into the guest. */
void
driveTrace(vg::Guest &g, const TraceParams &p, int steps = 6000)
{
    Rng rng(p.seed);
    const char *fns[] = {"alpha", "beta", "gamma", "delta",
                         "epsilon", "zeta", "eta", "theta"};
    vg::ThreadId threads[3] = {0, g.spawnThread(), g.spawnThread()};

    g.enter("main");
    if (p.roiOnly)
        g.roiBegin();
    bool in_roi = true;
    for (int i = 0; i < steps; ++i) {
        vg::Addr addr = vg::kHeapBase;
        addr += (rng.nextBounded(8) == 0) ? rng.nextBounded(1 << 24)
                                          : rng.nextBounded(1 << 16);
        unsigned size;
        switch (rng.nextBounded(8)) {
        case 0:
            size = 1000 + static_cast<unsigned>(rng.nextBounded(9000));
            break;
        case 1:
        case 2:
            size = 64 + static_cast<unsigned>(rng.nextBounded(192));
            break;
        default:
            size = 1 + static_cast<unsigned>(rng.nextBounded(16));
            break;
        }

        switch (rng.nextBounded(16)) {
        case 0:
            if (g.callDepth() < 6)
                g.enter(fns[rng.nextBounded(8)]);
            break;
        case 1:
            if (g.callDepth() > 1)
                g.leave();
            break;
        case 2:
            g.switchThread(threads[rng.nextBounded(3)]);
            if (g.callDepth() == 0)
                g.enter(fns[rng.nextBounded(8)]);
            break;
        case 3:
            g.iop(1 + rng.nextBounded(100));
            break;
        case 4:
            if (p.collectEvents && rng.nextBounded(4) == 0)
                g.barrier();
            break;
        case 5:
            if (p.roiOnly && rng.nextBounded(4) == 0) {
                if (in_roi)
                    g.roiEnd();
                else
                    g.roiBegin();
                in_roi = !in_roi;
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
        if (g.callDepth() > 0 && rng.nextBounded(32) == 0)
            g.branch(rng.nextBounded(2) == 0);
    }
    for (vg::ThreadId t : threads) {
        g.switchThread(t);
        while (g.callDepth() > 0)
            g.leave();
    }
    g.finish();
}

/** The framings replay reads: SGB3 as recorded, SGB2 transcoded. */
enum class Framing
{
    SGB2,
    SGB3,
};

/** The framings the salvage and fault-injection suites sweep. */
constexpr Framing kFramedFormats[] = {Framing::SGB2, Framing::SGB3};

std::string
formatName(Framing framing)
{
    return framing == Framing::SGB3 ? "SGB3" : "SGB2";
}

/** Record the workload as an SGB3 trace, transcoded when asked. */
std::string
recordTrace(const TraceParams &p, Framing framing,
            std::size_t block_events, int steps = 1500)
{
    vg::Guest g("robust");
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder rec(bos, block_events);
    g.addTool(&rec);
    driveTrace(g, p, steps);
    return framing == Framing::SGB2 ? sgb2FromSgb3(bos.str()) : bos.str();
}

struct ReplayOutcome
{
    vg::ReplayReport report;
    std::string profile;
    std::string events;
};

/** Replay a binary trace into a fresh profiler; serialize results. */
ReplayOutcome
replayBinary(const std::string &trace, const TraceParams &p,
             vg::ReplayPolicy policy)
{
    QuietLogs quiet;
    vg::Guest g("robust");
    core::SigilProfiler prof(profilerConfig(p));
    g.addTool(&prof);
    std::istringstream is(trace, std::ios::binary);
    vg::ReplayOptions opts;
    opts.policy = policy;
    ReplayOutcome out;
    out.report = vg::replayBinaryTrace(is, g, opts);
    if (out.report.ok()) {
        std::ostringstream pos;
        core::writeProfile(pos, prof.takeProfile());
        out.profile = pos.str();
        std::ostringstream eos;
        core::writeEvents(eos, prof.events());
        out.events = eos.str();
    }
    return out;
}

/** Total recorded events per the trailer frame of an SGB2 image. */
std::uint64_t
recordedTotal(const std::string &trace)
{
    // The end frame is the last frame of tag 0x00.
    std::vector<vg::Sgb2BlockInfo> blocks = vg::scanSgb2Blocks(trace);
    EXPECT_FALSE(blocks.empty());
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
        if (it->tag == 0x00)
            return it->firstEventSeq;
    }
    ADD_FAILURE() << "no end frame in trace";
    return 0;
}

// Opcodes as documented in docs/FORMATS.md §3.
constexpr std::uint8_t kOpRead = 1;
constexpr std::uint8_t kOpOp = 3;
constexpr std::uint8_t kOpEnter = 6;
constexpr std::uint8_t kOpLeave = 7;

/** A hand-built trace: fn table, one good block, one hostile block
 *  (CRC-valid), one good block, trailer. */
std::string
craftedTrace(const std::string &evil_payload, std::uint64_t evil_events)
{
    std::string t = tracePreamble("robust");
    std::string fns;
    putVarint(fns, 0);
    putVarint(fns, 4);
    fns += "main";
    t += makeFrame(kTagFunctions, 0, 0, 0, fns);

    std::string good1;
    good1.push_back(static_cast<char>(kOpEnter));
    putVarint(good1, 0);
    good1.push_back(static_cast<char>(kOpRead));
    putVarint(good1, zigzag(static_cast<std::int64_t>(vg::kHeapBase)));
    putVarint(good1, 8);
    t += makeFrame(kTagEvents, 1, 0, 2, good1);

    t += makeFrame(kTagEvents, 2, 2, evil_events, evil_payload);

    std::string good2;
    good2.push_back(static_cast<char>(kOpOp));
    putVarint(good2, 4);
    putVarint(good2, 1);
    good2.push_back(static_cast<char>(kOpLeave));
    t += makeFrame(kTagEvents, 3, 2 + evil_events, 2, good2);

    t += makeFrame(kTagEnd, 4, 4 + evil_events, 0, {});
    return t;
}

vg::ReplayReport
replayRaw(const std::string &trace, vg::ReplayPolicy policy)
{
    QuietLogs quiet;
    vg::Guest g("robust");
    std::istringstream is(trace, std::ios::binary);
    vg::ReplayOptions opts;
    opts.policy = policy;
    return vg::replayBinaryTrace(is, g, opts);
}

// ---------------------------------------------------------------------
// SGB2 compatibility and legacy inputs
// ---------------------------------------------------------------------

TEST(Sgb2Format, TranscodedSgb2ReplaysLikeItsSgb3Source)
{
    TraceParams p{11, 0, 0, true, true, false};
    const std::string sgb3 = recordTrace(p, Framing::SGB3, 128);
    const std::string sgb2 = sgb2FromSgb3(sgb3);
    ASSERT_EQ(sgb3.compare(0, 4, "SGB3"), 0);
    ASSERT_EQ(sgb2.compare(0, 4, "SGB2"), 0);

    ReplayOutcome o3 = replayBinary(sgb3, p, vg::ReplayPolicy::Strict);
    ReplayOutcome o2 = replayBinary(sgb2, p, vg::ReplayPolicy::Strict);
    EXPECT_TRUE(o3.report.ok());
    EXPECT_TRUE(o3.report.sawTrailer);
    EXPECT_TRUE(o3.report.cleanShutdown);
    EXPECT_FALSE(o3.report.sawCorruption());
    EXPECT_EQ(o3.report.eventsDelivered, o3.report.totalEventsRecorded);
    EXPECT_EQ(o2.profile, o3.profile);
    EXPECT_EQ(o2.events, o3.events);
    EXPECT_GT(o3.profile.size(), 100u);
    // Every ReplayReport counter matches too: toString() renders all
    // of them.
    EXPECT_EQ(o2.report.toString(), o3.report.toString());

    // The frame scan sees the same frames in both framings, with the
    // trailer's event total in the end frame, the last of the file.
    // (This random workload barely compresses; ParallelDecodeDifferential
    // covers compressed frames.)
    std::vector<vg::Sgb2BlockInfo> b3 = vg::scanSgb2Blocks(sgb3);
    std::vector<vg::Sgb2BlockInfo> b2 = vg::scanSgb2Blocks(sgb2);
    ASSERT_GE(b3.size(), 5u);
    ASSERT_EQ(b2.size(), b3.size());
    EXPECT_EQ(b3.back().tag, kTagEnd);
    EXPECT_EQ(b3.back().firstEventSeq, o3.report.totalEventsRecorded);
    std::uint64_t counted = 0;
    for (std::size_t i = 0; i < b3.size(); ++i) {
        EXPECT_EQ(b2[i].tag, b3[i].tag);
        EXPECT_EQ(b2[i].firstEventSeq, b3[i].firstEventSeq);
        EXPECT_EQ(b2[i].eventCount, b3[i].eventCount);
        EXPECT_EQ(b2[i].rawLen, b3[i].rawLen);
        EXPECT_FALSE(b2[i].compressed);
        counted += b3[i].eventCount;
    }
    EXPECT_EQ(counted, o3.report.totalEventsRecorded);
}

/** A well-formed trace in the unframed SGB1 format of early releases. */
std::string
legacySgb1Trace()
{
    std::string t = tracePreamble("robust", "SGB1");
    t += '\x01'; // function record: id 0, "main"
    putVarint(t, 0);
    putVarint(t, 4);
    t += "main";
    t += '\x02'; // event block: enter main, leave
    putVarint(t, 2);
    t += static_cast<char>(kOpEnter);
    putVarint(t, 0);
    t += static_cast<char>(kOpLeave);
    t += '\x00'; // end
    return t;
}

/** A well-formed trace in the text format of early releases. */
const std::string kLegacyTextTrace =
    "sigil-trace\t1\nprogram\trobust\nF\t0\tmain\nE\t0\nL\nend\n";

/** Replay an in-memory trace both from a stream and from a file. */
std::vector<vg::ReplayReport>
replayBothEntries(const std::string &trace, vg::ReplayPolicy policy)
{
    std::vector<vg::ReplayReport> reports;
    reports.push_back(replayRaw(trace, policy));
    std::string path = ::testing::TempDir() + "/legacy_input.trace";
    std::ofstream(path, std::ios::binary) << trace;
    QuietLogs quiet;
    vg::Guest g("robust");
    vg::ReplayOptions opts;
    opts.policy = policy;
    reports.push_back(vg::replayTraceFile(path, g, opts));
    std::remove(path.c_str());
    return reports;
}

TEST(LegacyInput, Sgb1TraceFailsAsBadMagic)
{
    const std::string sgb1 = legacySgb1Trace();
    for (const vg::ReplayReport &r :
         replayBothEntries(sgb1, vg::ReplayPolicy::Strict)) {
        ASSERT_TRUE(r.error.has_value());
        EXPECT_EQ(r.error->cause, vg::TraceErrorCause::BadMagic);
        EXPECT_EQ(r.error->byteOffset, 0u);
        EXPECT_NE(r.error->detail.find("SGB1"), std::string::npos)
            << r.error->detail;
        EXPECT_NE(r.error->detail.find("legacy"), std::string::npos)
            << r.error->detail;
        EXPECT_EQ(r.eventsDelivered, 0u);
    }
    for (const vg::ReplayReport &r :
         replayBothEntries(sgb1, vg::ReplayPolicy::Salvage)) {
        EXPECT_EQ(r.eventsDelivered, 0u);
        EXPECT_TRUE(r.truncated);
        EXPECT_FALSE(r.sawTrailer);
        ASSERT_FALSE(r.errors.empty());
        EXPECT_EQ(r.errors[0].cause, vg::TraceErrorCause::BadMagic);
    }
}

TEST(LegacyInput, TextTraceFailsAsBadMagic)
{
    for (const vg::ReplayReport &r :
         replayBothEntries(kLegacyTextTrace, vg::ReplayPolicy::Strict)) {
        ASSERT_TRUE(r.error.has_value());
        EXPECT_EQ(r.error->cause, vg::TraceErrorCause::BadMagic);
        EXPECT_EQ(r.error->byteOffset, 0u);
        EXPECT_EQ(r.eventsDelivered, 0u);
    }
    for (const vg::ReplayReport &r :
         replayBothEntries(kLegacyTextTrace, vg::ReplayPolicy::Salvage)) {
        EXPECT_EQ(r.eventsDelivered, 0u);
        EXPECT_TRUE(r.truncated);
        EXPECT_FALSE(r.sawTrailer);
    }
}

TEST(LegacyInputDeathTest, FatalReplayTraceFileNamesSgb1)
{
    // The text-trace case of the fatal entry point is
    // TraceIo.ReplayRejectsGarbage.
    const std::string path = ::testing::TempDir() + "/legacy.sgb1";
    std::ofstream(path, std::ios::binary) << legacySgb1Trace();
    vg::Guest g("robust");
    EXPECT_EXIT(vg::replayTraceFile(path, g), ::testing::ExitedWithCode(1),
                "bad magic.*SGB1 is a legacy trace format");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Adversarial bytes: the decoder must be bounds-checked everywhere
// ---------------------------------------------------------------------

TEST(AdversarialInput, UnterminatedPreambleVarintIsContained)
{
    std::string bad = "SGB2";
    bad.append(12, '\x80'); // a varint that never terminates
    for (vg::ReplayPolicy policy :
         {vg::ReplayPolicy::Strict, vg::ReplayPolicy::Salvage}) {
        vg::ReplayReport r = replayRaw(bad, policy);
        EXPECT_EQ(r.eventsDelivered, 0u);
        EXPECT_TRUE(r.error.has_value() || r.truncated);
        if (policy == vg::ReplayPolicy::Strict) {
            ASSERT_TRUE(r.error.has_value());
            EXPECT_EQ(r.error->cause,
                      vg::TraceErrorCause::VarintOverflow);
        }
    }
}

TEST(AdversarialInput, AbsurdNameLengthIsRejected)
{
    std::string bad = "SGB2";
    putVarint(bad, 1);
    putVarint(bad, std::uint64_t{1} << 40); // name "length"
    bad.append(64, 'x');
    vg::ReplayReport r = replayRaw(bad, vg::ReplayPolicy::Strict);
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.eventsDelivered, 0u);
}

TEST(AdversarialInput, RandomGarbageNeverCrashesAnyParser)
{
    Rng rng(0xfeedULL);
    for (int i = 0; i < 64; ++i) {
        std::string junk;
        std::size_t len = 1 + rng.nextBounded(2048);
        junk.reserve(len);
        for (std::size_t j = 0; j < len; ++j)
            junk.push_back(static_cast<char>(rng.nextBounded(256)));
        // Half the buffers masquerade as SGB2 or SGB3 to reach the
        // frame layer.
        if (i % 2 == 0 && junk.size() > 4)
            junk.replace(0, 4, i % 4 == 0 ? "SGB2" : "SGB3");
        for (vg::ReplayPolicy policy :
             {vg::ReplayPolicy::Strict, vg::ReplayPolicy::Salvage}) {
            QuietLogs quiet;
            vg::ReplayOptions opts;
            opts.policy = policy;
            vg::Guest g("robust");
            std::istringstream is(junk, std::ios::binary);
            vg::ReplayReport r = vg::replayBinaryTrace(is, g, opts);
            EXPECT_TRUE(r.sawCorruption() || r.sawTrailer);
        }
        {
            vg::TraceError e;
            std::istringstream is(junk);
            (void)core::tryReadProfile(is, e);
        }
        {
            vg::TraceError e;
            std::istringstream is(junk);
            (void)core::tryReadEvents(is, e);
        }
    }
}

TEST(AdversarialInput, CrcValidFrameWithVarintOverflowIsContained)
{
    // The payload checksums fine but holds an unterminated varint; the
    // framing layer cannot catch this, only the bounds-checked decoder.
    std::string evil;
    evil.push_back(static_cast<char>(kOpRead));
    evil.append(11, '\x80');
    std::string trace = craftedTrace(evil, 2);

    vg::ReplayReport strict = replayRaw(trace, vg::ReplayPolicy::Strict);
    ASSERT_TRUE(strict.error.has_value());
    EXPECT_EQ(strict.error->cause, vg::TraceErrorCause::VarintOverflow);
    EXPECT_EQ(strict.error->blockIndex, 2);

    vg::ReplayReport salvage =
        replayRaw(trace, vg::ReplayPolicy::Salvage);
    EXPECT_TRUE(salvage.ok());
    EXPECT_TRUE(salvage.sawTrailer);
    EXPECT_EQ(salvage.eventsDelivered, 4u);
    EXPECT_EQ(salvage.eventsSkipped, 2u);
    EXPECT_EQ(salvage.blocksSkipped, 1u);
    EXPECT_EQ(salvage.eventsDelivered + salvage.eventsSkipped,
              salvage.totalEventsRecorded);
    ASSERT_FALSE(salvage.errors.empty());
    EXPECT_EQ(salvage.errors[0].cause,
              vg::TraceErrorCause::VarintOverflow);
}

TEST(AdversarialInput, CrcValidFrameWithTruncatedRecordIsContained)
{
    // An access record whose varint runs off the end of the block.
    std::string evil;
    evil.push_back(static_cast<char>(kOpRead));
    evil.push_back('\x80');
    std::string trace = craftedTrace(evil, 2);

    vg::ReplayReport strict = replayRaw(trace, vg::ReplayPolicy::Strict);
    ASSERT_TRUE(strict.error.has_value());
    EXPECT_EQ(strict.error->cause, vg::TraceErrorCause::BoundsExceeded);
    EXPECT_EQ(strict.error->blockIndex, 2);

    vg::ReplayReport salvage =
        replayRaw(trace, vg::ReplayPolicy::Salvage);
    EXPECT_TRUE(salvage.ok());
    EXPECT_EQ(salvage.eventsDelivered + salvage.eventsSkipped,
              salvage.totalEventsRecorded);
    EXPECT_EQ(salvage.blocksSkipped, 1u);
}

TEST(AdversarialInput, WrappingAccessRecordIsABadRecord)
{
    // An SGB3 events block: a 16-byte read ending exactly at byte
    // 2^64 - 1 (valid), then a 16-byte read 8 bytes higher, whose range
    // would wrap past the top of the address space.
    std::string t = tracePreamble("robust", "SGB3");
    std::string fns;
    putVarint(fns, 0);
    putVarint(fns, 4);
    fns += "main";
    t += makeFrame3(kTagFunctions, 0, 0, 0, fns);

    std::string events;
    events.push_back(static_cast<char>(kOpEnter));
    putVarint(events, 0);
    events.push_back(static_cast<char>(kOpRead));
    putVarint(events, zigzag(-16)); // 0xfff...f0
    putVarint(events, 16);
    const std::size_t evil_at = events.size();
    events.push_back(static_cast<char>(kOpRead));
    putVarint(events, zigzag(8)); // 0xfff...f8
    putVarint(events, 16);
    events.push_back(static_cast<char>(kOpLeave));
    const std::string frame = makeFrame3(kTagEvents, 1, 0, 4, events);
    const std::size_t payload_at = t.size() + frame.size() - events.size();
    t += frame;
    t += makeFrame3(kTagEnd, 2, 4, 0, {});

    vg::ReplayReport strict = replayRaw(t, vg::ReplayPolicy::Strict);
    ASSERT_TRUE(strict.error.has_value());
    EXPECT_EQ(strict.error->cause, vg::TraceErrorCause::BadRecord);
    EXPECT_EQ(strict.error->blockIndex, 1);
    EXPECT_EQ(strict.error->byteOffset, payload_at + evil_at);
    EXPECT_NE(strict.error->detail.find("wraps"), std::string::npos)
        << strict.error->detail;

    vg::ReplayReport salvage = replayRaw(t, vg::ReplayPolicy::Salvage);
    EXPECT_TRUE(salvage.ok());
    EXPECT_EQ(salvage.blocksSkipped, 1u);
    ASSERT_FALSE(salvage.errors.empty());
    EXPECT_EQ(salvage.errors[0].cause, vg::TraceErrorCause::BadRecord);
}

TEST(AdversarialInput, UnknownOpcodeIsContained)
{
    std::string evil;
    evil.push_back(static_cast<char>(0xee));
    std::string trace = craftedTrace(evil, 1);

    vg::ReplayReport strict = replayRaw(trace, vg::ReplayPolicy::Strict);
    ASSERT_TRUE(strict.error.has_value());
    EXPECT_EQ(strict.error->cause, vg::TraceErrorCause::UnknownOpcode);

    vg::ReplayReport salvage =
        replayRaw(trace, vg::ReplayPolicy::Salvage);
    EXPECT_TRUE(salvage.ok());
    EXPECT_TRUE(salvage.sawTrailer);
    EXPECT_EQ(salvage.eventsDelivered + salvage.eventsSkipped,
              salvage.totalEventsRecorded);
}

// ---------------------------------------------------------------------
// Salvage recovery
// ---------------------------------------------------------------------

TEST(SalvageRecovery, TruncationAtEveryOffsetNeverCrashes)
{
    for (Framing format : kFramedFormats) {
        SCOPED_TRACE(formatName(format));
        TraceParams p{33, 0, 0, true, false, false};
        std::string trace = recordTrace(p, format, 32, 250);
        std::uint64_t total = recordedTotal(trace);
        ASSERT_GT(total, 100u);

        for (std::size_t cut = 0; cut < trace.size(); ++cut) {
            SCOPED_TRACE("cut at " + std::to_string(cut));
            std::string t = trace.substr(0, cut);
            QuietLogs quiet;
            vg::Guest g("robust");
            std::istringstream is(t, std::ios::binary);
            vg::ReplayOptions opts;
            opts.policy = vg::ReplayPolicy::Salvage;
            vg::ReplayReport r = vg::replayBinaryTrace(is, g, opts);
            EXPECT_TRUE(r.truncated || r.sawTrailer);
            EXPECT_LE(r.eventsDelivered, total);
            if (r.sawTrailer && !r.truncated) {
                EXPECT_EQ(r.eventsDelivered + r.eventsSkipped, total);
            }
        }
    }
}

TEST(SalvageRecovery, AnySingleCorruptBlockIsSkippedPrecisely)
{
    for (Framing format : kFramedFormats) {
        SCOPED_TRACE(formatName(format));
        TraceParams p{44, 0, 0, true, false, false};
        std::string trace = recordTrace(p, format, 64);
        std::uint64_t total = recordedTotal(trace);
        std::vector<vg::Sgb2BlockInfo> blocks = vg::scanSgb2Blocks(trace);

        for (std::size_t vi = 0; vi < blocks.size(); ++vi) {
            const vg::Sgb2BlockInfo &victim = blocks[vi];
            if (victim.tag != kTagEvents)
                continue;
            SCOPED_TRACE("victim block " + std::to_string(vi));
            std::string bad = trace;
            // Flip the last payload byte: header stays valid, payload
            // CRC must catch the damage before any event is dispatched.
            bad[victim.offset + victim.length - 1] ^= 0x01;

            vg::ReplayReport strict =
                replayRaw(bad, vg::ReplayPolicy::Strict);
            ASSERT_TRUE(strict.error.has_value());
            EXPECT_EQ(strict.error->cause,
                      vg::TraceErrorCause::PayloadCrc);
            EXPECT_EQ(strict.error->byteOffset, victim.offset);
            EXPECT_EQ(strict.error->blockIndex,
                      static_cast<std::int64_t>(vi));

            ReplayOutcome salvage =
                replayBinary(bad, p, vg::ReplayPolicy::Salvage);
            EXPECT_TRUE(salvage.report.ok());
            EXPECT_TRUE(salvage.report.sawTrailer);
            EXPECT_EQ(salvage.report.blocksSkipped, 1u);
            EXPECT_EQ(salvage.report.eventsSkipped, victim.eventCount);
            EXPECT_EQ(salvage.report.eventsDelivered +
                          salvage.report.eventsSkipped,
                      total);
            ASSERT_EQ(salvage.report.errors.size(), 1u);
            EXPECT_EQ(salvage.report.errors[0].cause,
                      vg::TraceErrorCause::PayloadCrc);
            EXPECT_FALSE(salvage.profile.empty());
        }
    }
}

TEST(SalvageRecovery, DamagedHeaderResynchronizesOnNextFrame)
{
    for (Framing format : kFramedFormats) {
        SCOPED_TRACE(formatName(format));
        TraceParams p{45, 0, 0, true, false, false};
        std::string trace = recordTrace(p, format, 64);
        std::uint64_t total = recordedTotal(trace);
        std::vector<vg::Sgb2BlockInfo> blocks = vg::scanSgb2Blocks(trace);
        std::size_t vi = 0;
        for (std::size_t i = 2; i < blocks.size() - 1; ++i)
            if (blocks[i].tag == kTagEvents) {
                vi = i;
                break;
            }
        ASSERT_GT(vi, 0u);

        std::string bad = trace;
        bad[blocks[vi].offset + 5] ^= 0x40; // inside the frame header

        vg::ReplayReport r = replayRaw(bad, vg::ReplayPolicy::Salvage);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.sawTrailer);
        EXPECT_GE(r.resyncs, 1u);
        EXPECT_EQ(r.eventsDelivered + r.eventsSkipped, total);
        EXPECT_EQ(r.eventsSkipped, blocks[vi].eventCount);
    }
}

TEST(SalvageRecovery, DuplicatedBlockIsDroppedAsStale)
{
    TraceParams p{55, 0, 0, true, false, false};
    std::string trace = recordTrace(p, Framing::SGB3, 64);
    std::uint64_t total = recordedTotal(trace);
    ReplayOutcome ref = replayBinary(trace, p, vg::ReplayPolicy::Strict);

    std::vector<vg::Sgb2BlockInfo> blocks = vg::scanSgb2Blocks(trace);
    const vg::Sgb2BlockInfo *victim = nullptr;
    for (const vg::Sgb2BlockInfo &b : blocks)
        if (b.tag == kTagEvents && b.firstEventSeq > 0) {
            victim = &b;
            break;
        }
    ASSERT_NE(victim, nullptr);

    std::string dup = trace;
    dup.insert(victim->offset + victim->length,
               trace.substr(victim->offset, victim->length));

    ReplayOutcome o = replayBinary(dup, p, vg::ReplayPolicy::Salvage);
    EXPECT_TRUE(o.report.ok());
    EXPECT_EQ(o.report.blocksStale, 1u);
    EXPECT_EQ(o.report.eventsDelivered, total);
    EXPECT_EQ(o.report.eventsSkipped, 0u);
    // The duplicate is dropped without touching the analysis.
    EXPECT_EQ(o.profile, ref.profile);
}

TEST(SalvageRecovery, ReorderedBlocksAreAccounted)
{
    TraceParams p{56, 0, 0, true, false, false};
    std::string trace = recordTrace(p, Framing::SGB3, 64);
    std::uint64_t total = recordedTotal(trace);
    std::vector<vg::Sgb2BlockInfo> blocks = vg::scanSgb2Blocks(trace);

    // Swap two adjacent event frames.
    const vg::Sgb2BlockInfo *a = nullptr, *b = nullptr;
    for (std::size_t i = 0; i + 1 < blocks.size(); ++i)
        if (blocks[i].tag == kTagEvents &&
            blocks[i + 1].tag == kTagEvents &&
            blocks[i].offset + blocks[i].length ==
                blocks[i + 1].offset) {
            a = &blocks[i];
            b = &blocks[i + 1];
            break;
        }
    ASSERT_NE(a, nullptr);

    std::string re = trace.substr(0, a->offset) +
                     trace.substr(b->offset, b->length) +
                     trace.substr(a->offset, a->length) +
                     trace.substr(b->offset + b->length);

    vg::ReplayReport r = replayRaw(re, vg::ReplayPolicy::Salvage);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.sawTrailer);
    // The out-of-order frame opens a gap; the late frame is stale.
    EXPECT_EQ(r.eventsSkipped, a->eventCount);
    EXPECT_EQ(r.blocksStale, 1u);
    EXPECT_EQ(r.eventsDelivered + r.eventsSkipped, total);
    EXPECT_EQ(r.resyncs, 0u); // no byte-level damage
}

// ---------------------------------------------------------------------
// Deterministic fault-injection sweep
// ---------------------------------------------------------------------

TEST(FaultInjection, PlansAreDeterministic)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        vg::FaultPlan plan = vg::FaultPlan::fromSeed(seed);
        std::string a(2048, 'A'), b(2048, 'A');
        std::string da = plan.apply(a);
        std::string db = plan.apply(b);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_EQ(da, db);
        EXPECT_NE(a, std::string(2048, 'A')) << "seed " << seed;
    }
}

TEST(FaultInjection, TwoHundredSeedSweepNeverCrashesAlwaysAccounts)
{
    for (Framing format : kFramedFormats) {
        SCOPED_TRACE(formatName(format));
        TraceParams p{66, 0, 0, true, false, false};
        std::string pristine = recordTrace(p, format, 64, 800);
        std::uint64_t total = recordedTotal(pristine);
        int bounded = 0;

        for (std::uint64_t seed = 1; seed <= 200; ++seed) {
            vg::FaultPlan plan = vg::FaultPlan::fromSeed(seed);
            std::string t = pristine;
            std::string what = plan.apply(t);
            SCOPED_TRACE("seed " + std::to_string(seed) + ": " + what);
            QuietLogs quiet;

            // Salvage: never crash, and whenever the trailer survives
            // the loss accounting must sum to the recorded total.
            vg::Guest g("robust");
            core::SigilProfiler prof(profilerConfig(p));
            g.addTool(&prof);
            std::istringstream is(t, std::ios::binary);
            vg::ReplayOptions opts;
            opts.policy = vg::ReplayPolicy::Salvage;
            vg::ReplayReport r = vg::replayBinaryTrace(is, g, opts);
            EXPECT_TRUE(r.sawTrailer || r.truncated);
            EXPECT_LE(r.eventsDelivered, total);
            if (r.sawTrailer && !r.truncated) {
                EXPECT_EQ(r.eventsDelivered + r.eventsSkipped, total);
                ++bounded;
            }

            // Strict: never crash; a stopping error carries a position
            // inside the input.
            vg::Guest g2("robust");
            std::istringstream is2(t, std::ios::binary);
            vg::ReplayReport r2 =
                vg::replayBinaryTrace(is2, g2, vg::ReplayOptions{});
            if (r2.error.has_value()) {
                EXPECT_LE(r2.error->byteOffset, t.size());
            }
        }
        // Most corruptions leave the trailer reachable, so the sweep
        // really does exercise the accounting path.
        EXPECT_GT(bounded, 100);
    }
}

// ---------------------------------------------------------------------
// Text-format structured errors (profile, events)
// ---------------------------------------------------------------------

TEST(ProfileIo, ParserReportsLineAndOffset)
{
    TraceParams p{88, 0, 0, true, true, false};
    ReplayOutcome o = replayBinary(recordTrace(p, Framing::SGB3,
                                               4096),
                                   p, vg::ReplayPolicy::Strict);
    ASSERT_FALSE(o.profile.empty());
    ASSERT_FALSE(o.events.empty());

    {
        std::istringstream is(o.profile);
        vg::TraceError e;
        EXPECT_TRUE(core::tryReadProfile(is, e).has_value());
    }
    {
        std::istringstream is(o.events);
        vg::TraceError e;
        EXPECT_TRUE(core::tryReadEvents(is, e).has_value());
    }

    // Corrupt one numeric field of a row line; the error names the
    // exact line, its byte offset, and the offending token.
    std::vector<std::string> lines;
    {
        std::istringstream is(o.profile);
        std::string line;
        while (std::getline(is, line))
            lines.push_back(line);
    }
    std::size_t li = 0;
    for (std::size_t i = 0; i < lines.size(); ++i)
        if (lines[i].rfind("row\t", 0) == 0) {
            li = i;
            break;
        }
    ASSERT_GT(li, 0u);
    std::size_t last_tab = lines[li].rfind('\t');
    lines[li].replace(last_tab + 1, std::string::npos, "12x34");
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < li; ++i)
        offset += lines[i].size() + 1;
    std::string bad;
    for (const std::string &l : lines) {
        bad += l;
        bad += '\n';
    }
    {
        std::istringstream is(bad);
        vg::TraceError e;
        EXPECT_FALSE(core::tryReadProfile(is, e).has_value());
        EXPECT_EQ(e.cause, vg::TraceErrorCause::BadRecord);
        EXPECT_EQ(e.line, li + 1);
        EXPECT_EQ(e.byteOffset, offset);
        EXPECT_NE(e.detail.find("12x34"), std::string::npos);
    }

    // A profile missing its end marker is flagged as truncated.
    {
        std::string cut = o.profile.substr(0, o.profile.rfind("end"));
        std::istringstream is(cut);
        vg::TraceError e;
        EXPECT_FALSE(core::tryReadProfile(is, e).has_value());
        EXPECT_EQ(e.cause, vg::TraceErrorCause::Truncated);
    }
    // Same contract for the event-trace parser.
    {
        std::string bad_events = "sigil-events\t1\nC\tnope\n";
        std::istringstream is(bad_events);
        vg::TraceError e;
        EXPECT_FALSE(core::tryReadEvents(is, e).has_value());
        EXPECT_EQ(e.line, 2u);
    }
}

// ---------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------

class CheckpointResume : public ::testing::TestWithParam<TraceParams>
{};

TEST_P(CheckpointResume, ResumedReplayIsBitIdentical)
{
    const TraceParams &p = GetParam();
    std::string trace = recordTrace(p, Framing::SGB2, 64);
    ReplayOutcome ref = replayBinary(trace, p, vg::ReplayPolicy::Strict);
    ASSERT_TRUE(ref.report.sawTrailer);

    std::string path =
        ::testing::TempDir() + "/ckpt_" + std::to_string(p.seed);
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    std::remove((path + ".tmp").c_str());

    auto run = [&](core::CheckpointStats &st) {
        QuietLogs quiet;
        vg::Guest g("robust");
        core::SigilProfiler prof(profilerConfig(p));
        g.addTool(&prof);
        std::istringstream is(trace, std::ios::binary);
        core::CheckpointConfig cc;
        cc.path = path;
        cc.intervalBlocks = 3;
        vg::ReplayReport r = core::replayWithCheckpoints(
            is, g, prof, vg::ReplayOptions{}, cc, &st);
        EXPECT_TRUE(r.ok());
        EXPECT_TRUE(r.sawTrailer);
        EXPECT_EQ(r.eventsDelivered, r.totalEventsRecorded);
        std::ostringstream pos, eos;
        core::writeProfile(pos, prof.takeProfile());
        core::writeEvents(eos, prof.events());
        return std::make_pair(pos.str(), eos.str());
    };

    // Fresh run: periodic checkpoints, same result as a plain replay.
    core::CheckpointStats st1;
    auto out1 = run(st1);
    EXPECT_FALSE(st1.resumed);
    EXPECT_GE(st1.checkpointsWritten, 2u);
    EXPECT_GT(st1.lastCheckpointBytes, 0u);
    EXPECT_EQ(out1.first, ref.profile);
    EXPECT_EQ(out1.second, ref.events);

    // Second run resumes from the last mid-stream checkpoint and must
    // be bit-identical to the uninterrupted replay.
    core::CheckpointStats st2;
    auto out2 = run(st2);
    EXPECT_TRUE(st2.resumed);
    EXPECT_GT(st2.resumeBlocks, 0u);
    EXPECT_EQ(out2.first, ref.profile);
    EXPECT_EQ(out2.second, ref.events);

    // Damage the newest checkpoint: resume falls back to <path>.prev.
    {
        std::ifstream in(path, std::ios::binary);
        std::string c((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
        in.close();
        ASSERT_GT(c.size(), 16u);
        c.resize(c.size() / 2);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << c;
    }
    core::CheckpointStats st3;
    auto out3 = run(st3);
    EXPECT_TRUE(st3.resumed);
    EXPECT_EQ(out3.first, ref.profile);
    EXPECT_EQ(out3.second, ref.events);

    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CheckpointResume,
    ::testing::Values(TraceParams{101, 0, 0, true, true, false},
                      TraceParams{202, 0, 6, true, true, false},
                      TraceParams{303, 6, 0, true, true, false},
                      TraceParams{404, 6, 4, true, true, false},
                      TraceParams{505, 0, 0, false, false, false},
                      TraceParams{606, 0, 0, true, false, true},
                      TraceParams{707, 6, 0, false, false, false}),
    [](const ::testing::TestParamInfo<TraceParams> &info) {
        const TraceParams &p = info.param;
        std::string name = "seed" + std::to_string(p.seed) + "_g" +
                           std::to_string(p.granularityShift) + "_max" +
                           std::to_string(p.maxShadowChunks);
        if (p.collectReuse)
            name += "_reuse";
        if (p.collectEvents)
            name += "_events";
        if (p.roiOnly)
            name += "_roi";
        return name;
    });

TEST(CheckpointResume2, MismatchedTraceOrConfigStartsFresh)
{
    TraceParams pa{121, 0, 0, true, false, false};
    TraceParams pb{122, 0, 0, true, false, false};
    std::string trace_a = recordTrace(pa, Framing::SGB3, 64);
    std::string trace_b = recordTrace(pb, Framing::SGB3, 64);
    std::string path = ::testing::TempDir() + "/ckpt_mismatch";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    auto run = [&](const std::string &trace, const TraceParams &p,
                   core::CheckpointStats &st) {
        QuietLogs quiet;
        vg::Guest g("robust");
        core::SigilProfiler prof(profilerConfig(p));
        g.addTool(&prof);
        std::istringstream is(trace, std::ios::binary);
        core::CheckpointConfig cc;
        cc.path = path;
        cc.intervalBlocks = 3;
        vg::ReplayReport r = core::replayWithCheckpoints(
            is, g, prof, vg::ReplayOptions{}, cc, &st);
        EXPECT_TRUE(r.ok());
        std::ostringstream pos;
        core::writeProfile(pos, prof.takeProfile());
        return pos.str();
    };

    core::CheckpointStats st1;
    run(trace_a, pa, st1);
    EXPECT_FALSE(st1.resumed);

    // Checkpoints from trace A must not resume a replay of trace B.
    core::CheckpointStats st2;
    std::string fresh_b = run(trace_b, pb, st2);
    EXPECT_FALSE(st2.resumed);
    EXPECT_EQ(fresh_b,
              replayBinary(trace_b, pb, vg::ReplayPolicy::Strict)
                  .profile);

    // A checkpoint written under one profiler configuration must not
    // resume a replay under another.
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    core::CheckpointStats st3;
    run(trace_a, pa, st3);
    EXPECT_FALSE(st3.resumed);
    TraceParams pa_coarse{121, 6, 0, true, false, false};
    core::CheckpointStats st4;
    std::string coarse = run(trace_a, pa_coarse, st4);
    EXPECT_FALSE(st4.resumed);
    EXPECT_EQ(coarse,
              replayBinary(trace_a, pa_coarse, vg::ReplayPolicy::Strict)
                  .profile);

    // A profiler body with any version byte other than 3 must not
    // resume either: re-seal a valid checkpoint around each foreign
    // version byte and expect a fresh, uncheckpointed-identical replay.
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    core::CheckpointStats st5;
    run(trace_a, pa, st5);
    ASSERT_GE(st5.checkpointsWritten, 1u);
    std::string file;
    {
        std::ifstream in(path, std::ios::binary);
        file.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    // Envelope: "SGCP", u8 version, u64 payload length, u32 payload CRC.
    constexpr std::size_t kEnvelope = 4 + 1 + 8 + 4;
    ASSERT_GT(file.size(), kEnvelope);
    ByteSource src(file.data() + kEnvelope, file.size() - kEnvelope);
    src.u64(); // trace binding: size
    src.u32(); // trace binding: preamble CRC
    vg::Guest probe("robust");
    ASSERT_TRUE(probe.restoreState(src));
    const std::size_t body_at = kEnvelope + src.pos();
    ASSERT_EQ(static_cast<unsigned char>(file[body_at]), 3u);
    const std::string fresh_a =
        replayBinary(trace_a, pa, vg::ReplayPolicy::Strict).profile;
    for (unsigned version : {1u, 2u, 4u, 0xffu}) {
        SCOPED_TRACE("profiler body version " + std::to_string(version));
        std::string bad = file;
        bad[body_at] = static_cast<char>(version);
        const std::uint32_t crc =
            crc32c(bad.data() + kEnvelope, bad.size() - kEnvelope);
        for (int i = 0; i < 4; ++i)
            bad[kEnvelope - 4 + i] = static_cast<char>(crc >> (8 * i));
        std::remove((path + ".prev").c_str());
        std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;
        core::CheckpointStats st;
        std::string got = run(trace_a, pa, st);
        EXPECT_FALSE(st.resumed);
        EXPECT_EQ(got, fresh_a);
    }

    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

// ---------------------------------------------------------------------
// Shadow allocation pressure: evict-retry and the degradation ladder
// ---------------------------------------------------------------------

TEST(DegradationLadder, EvictRetryAbsorbsTransientFailures)
{
    vg::Guest g("degrade");
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);

    int countdown = 0;
    prof.shadowMemory().setAllocationFailureInjector(
        [&countdown]() { return countdown-- > 0; });

    g.enter("main");
    g.write(vg::kHeapBase, 8);
    g.write(vg::kHeapBase + (1ull << 13), 8); // second chunk
    countdown = 1; // next fresh chunk fails once, then succeeds
    g.write(vg::kHeapBase + (1ull << 14), 8);
    // One eviction absorbed the transient failure; fidelity intact.
    EXPECT_EQ(prof.degradationLevel(), 0);
    EXPECT_GE(prof.shadowMemory().stats().allocFailures, 1u);
    EXPECT_GE(prof.shadowMemory().stats().evictions, 1u);
    g.leave();
    g.finish();
}

TEST(DegradationLadder, PersistentPressureShedsReuseThenClassification)
{
    QuietLogs quiet;
    vg::Guest g("degrade");
    core::SigilConfig cfg;
    cfg.collectReuse = true;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);

    g.enter("main");
    vg::ContextId main_ctx = g.currentContext();
    // Build up a pending re-use run before the pressure hits.
    g.write(vg::kHeapBase, 8);
    g.read(vg::kHeapBase, 8);
    g.read(vg::kHeapBase, 8);
    EXPECT_EQ(prof.degradationLevel(), 0);

    prof.shadowMemory().setAllocationFailureInjector(
        []() { return true; });

    // First exhausted allocation: rung 1 — re-use tracking dropped,
    // pending runs finalized first so their mass survives.
    g.read(vg::kHeapBase + (1ull << 13), 8);
    EXPECT_EQ(prof.degradationLevel(), 1);
    // Eight one-byte units (default granularity) were re-read before
    // the pressure hit; finalization must bank all of them.
    EXPECT_EQ(prof.aggregates(main_ctx).reusedUnits, 8u);

    // Second exhausted allocation: rung 2 — classification dropped.
    g.read(vg::kHeapBase + (1ull << 14), 8);
    EXPECT_EQ(prof.degradationLevel(), 2);

    // Raw byte accounting still runs at rung 2.
    std::uint64_t read_before = prof.aggregates(main_ctx).readBytes;
    std::uint64_t classified_before =
        prof.aggregates(main_ctx).uniqueLocalBytes +
        prof.aggregates(main_ctx).nonuniqueLocalBytes +
        prof.aggregates(main_ctx).uniqueInputBytes +
        prof.aggregates(main_ctx).nonuniqueInputBytes;
    g.read(vg::kHeapBase + (1ull << 15), 64);
    EXPECT_EQ(prof.aggregates(main_ctx).readBytes, read_before + 64);
    EXPECT_EQ(prof.aggregates(main_ctx).uniqueLocalBytes +
                  prof.aggregates(main_ctx).nonuniqueLocalBytes +
                  prof.aggregates(main_ctx).uniqueInputBytes +
                  prof.aggregates(main_ctx).nonuniqueInputBytes,
              classified_before);

    // The ladder never descends.
    g.leave();
    g.finish();
    EXPECT_EQ(prof.degradationLevel(), 2);
    EXPECT_GE(prof.shadowMemory().stats().allocFailures, 2u);
}

TEST(DegradationLadder, NoReuseConfigSkipsStraightToClassification)
{
    QuietLogs quiet;
    vg::Guest g("degrade");
    core::SigilConfig cfg;
    cfg.collectReuse = false;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);
    prof.shadowMemory().setAllocationFailureInjector(
        []() { return true; });
    g.enter("main");
    g.write(vg::kHeapBase, 8);
    // With no re-use tracking to shed, rung 1 falls through to 2.
    EXPECT_EQ(prof.degradationLevel(), 2);
    g.leave();
    g.finish();
}

// ---------------------------------------------------------------------
// Round trips, the format sniff and fatal replay of bad input
// ---------------------------------------------------------------------

/** Record one workload as an SGB3 trace. */
std::string
recordBinary(const TraceParams &p)
{
    vg::Guest g("trace_roundtrip");
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder brec(bos);
    g.addTool(&brec);
    driveTrace(g, p);
    return bos.str();
}

TEST(BinaryTrace, RoiRoundTrips)
{
    // ROI marks survive the trace: an roiOnly profiler sees identical
    // windows live and from the replayed binary trace.
    TraceParams p{2222, 0, 0, true, false, true};

    vg::Guest g("trace_roundtrip");
    core::SigilConfig scfg;
    scfg.roiOnly = true;
    core::SigilProfiler live(scfg);
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder brec(bos);
    g.addTool(&live);
    g.addTool(&brec);
    driveTrace(g, p);

    std::ostringstream live_pos;
    core::writeProfile(live_pos, live.takeProfile());

    vg::Guest rg("trace_roundtrip");
    core::SigilProfiler prof(scfg);
    rg.addTool(&prof);
    std::istringstream is(bos.str(), std::ios::binary);
    vg::replayBinaryTrace(is, rg);
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());

    EXPECT_EQ(live_pos.str(), pos.str());
}

TEST(BinaryTrace, FileSniffSelectsFormat)
{
    TraceParams p{4444, 0, 0, false, false, false};
    std::string sgb3 = recordBinary(p);
    std::string sgb2 = fixtures::sgb2FromSgb3(sgb3);

    std::string dir = ::testing::TempDir();
    std::string sgb2_path = dir + "/sniff_trace.sgb2";
    std::string sgb3_path = dir + "/sniff_trace.sgb3";
    std::ofstream(sgb2_path, std::ios::binary) << sgb2;
    std::ofstream(sgb3_path, std::ios::binary) << sgb3;

    auto replay_file = [](const std::string &path) {
        vg::Guest g("trace_roundtrip");
        core::SigilProfiler prof;
        g.addTool(&prof);
        EXPECT_GT(vg::replayTraceFile(path, g), 1000u);
        std::ostringstream pos;
        core::writeProfile(pos, prof.takeProfile());
        return pos.str();
    };
    std::string from_sgb3 = replay_file(sgb3_path);
    EXPECT_EQ(replay_file(sgb2_path), from_sgb3);
    EXPECT_GT(from_sgb3.size(), 100u);
    std::remove(sgb2_path.c_str());
    std::remove(sgb3_path.c_str());
}

TEST(BinaryTraceDeath, RejectsGarbage)
{
    vg::Guest g("garbage");
    std::istringstream is(std::string("not a trace at all"),
                          std::ios::binary);
    EXPECT_EXIT(vg::replayBinaryTrace(is, g),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(BinaryTraceDeath, RejectsTruncation)
{
    TraceParams p{5555, 0, 0, false, false, false};
    std::string binary = recordBinary(p);
    // A cut mid-block surfaces as a truncation or a corrupt record,
    // never as a silent partial replay.
    std::string truncated = binary.substr(0, binary.size() / 2);
    vg::Guest g("truncated");
    std::istringstream is(truncated, std::ios::binary);
    EXPECT_EXIT(vg::replayBinaryTrace(is, g),
                ::testing::ExitedWithCode(1), "binary trace");
}

// ---------------------------------------------------------------------
// Guest state round-trip
// ---------------------------------------------------------------------

TEST(GuestState, SaveRestoreRoundTripsBitIdentically)
{
    vg::Guest g("round");
    g.enter("main");
    g.write(vg::kHeapBase, 16);
    g.enter("leaf");
    g.iop(5);
    g.read(vg::kHeapBase, 8);

    ByteSink s1;
    g.saveState(s1);

    vg::Guest g2("round");
    ByteSource src(s1.bytes().data(), s1.bytes().size());
    ASSERT_TRUE(g2.restoreState(src));
    ByteSink s2;
    g2.saveState(s2);
    EXPECT_EQ(s1.bytes(), s2.bytes());

    // A different program must not accept the snapshot.
    {
        vg::Guest other("other");
        ByteSource s(s1.bytes().data(), s1.bytes().size());
        EXPECT_FALSE(other.restoreState(s));
    }
    // Corrupt state must be rejected, not half-applied.
    {
        std::string junk = s1.bytes();
        junk[2] ^= 0x20;
        vg::Guest fresh("round");
        ByteSource s(junk.data(), junk.size());
        EXPECT_FALSE(fresh.restoreState(s));
    }
}

} // namespace
} // namespace sigil
