/**
 * @file
 * Robustness suite for the hardened trace-ingestion path.
 *
 * Exercises the ingestion contract end to end: legacy SGB1, SGB2 and
 * text traces fail cleanly as bad magic, bounds-checked decoding of
 * adversarial bytes (including CRC-valid frames with hostile
 * payloads), salvage recovery from truncation at every byte offset
 * and from any single corrupted block, the deterministic
 * fault-injection sweep ("never crash, always account",
 * tests/fault_plan.hh), checkpoints that must not resume a different
 * trace or configuration, the bounds-checked LZ block codec, and the
 * structured line/offset error reporting of the profile and event
 * parsers. Also the binary round trip of ROI marks, the recorder's
 * bytes at every event's widest encoding against a per-byte string
 * encoder, and the fatal replay entry point rejecting garbage and
 * truncated input. Bit-identity of
 * replay and checkpoint/resume across the shadow configurations is
 * the differential matrix's (tests/differential_test.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/profile_io.hh"
#include "core/sigil_profiler.hh"
#include "support/crc32c.hh"
#include "support/lz.hh"
#include "support/rng.hh"
#include "support/serial.hh"
#include "vg/guest.hh"
#include "vg/trace_io.hh"

#include "fault_plan.hh"
#include "trace_fixtures.hh"

namespace sigil {
namespace {

using namespace fixtures;

/** Record the workload as an SGB3 trace. */
std::string
recordTrace(const TraceParams &p, std::size_t block_events,
            int steps = 1500)
{
    vg::Guest g("robust");
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder rec(bos, block_events);
    g.addTool(&rec);
    TraceDriver(p).drive(g, steps);
    return bos.str();
}

struct ReplayOutcome
{
    vg::ReplayReport report;
    Outputs out;
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
    if (out.report.ok())
        out.out = serialize(prof);
    return out;
}

/** Total recorded events per the trailer frame of a trace image. */
std::uint64_t
recordedTotal(const std::string &trace)
{
    // The end frame is the last frame of tag 0x00.
    std::vector<vg::FrameInfo> blocks = vg::scanFrames(trace);
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
// Legacy inputs
// ---------------------------------------------------------------------

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

/**
 * A well-formed trace in the SGB2 format of earlier releases: the
 * preamble under the SGB2 magic, then one CRC-valid event frame (enter
 * function 0, leave) under the SGB2 sync bytes, whose header has no
 * flags byte and no raw length.
 */
std::string
legacySgb2Trace()
{
    std::string t = tracePreamble("robust", "SGB2");
    std::string payload;
    payload += static_cast<char>(kOpEnter);
    putVarint(payload, 0);
    payload += static_cast<char>(kOpLeave);
    std::string f = "\xa7SB\xb2";
    f.push_back(static_cast<char>(kTagEvents));
    putVarint(f, 0); // block sequence
    putVarint(f, 0); // first event sequence
    putVarint(f, 2); // event count
    putVarint(f, payload.size());
    putU32le(f, crc32c(payload.data(), payload.size()));
    putU32le(f, crc32c(f.data(), f.size()));
    return t + f + payload;
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
    // One file per test: ctest runs the LegacyInput tests in parallel.
    std::string path =
        ::testing::TempDir() + "/legacy_input_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".trace";
    std::ofstream(path, std::ios::binary) << trace;
    QuietLogs quiet;
    vg::Guest g("robust");
    vg::ReplayOptions opts;
    opts.policy = policy;
    reports.push_back(vg::replayTraceFile(path, g, opts));
    std::remove(path.c_str());
    return reports;
}

/**
 * A trace in a legacy binary format fails at offset 0 as bad magic,
 * with a detail naming the format as legacy, through the stream and
 * the file entry points; salvage finds no frame it reads and delivers
 * nothing.
 */
void
expectRejectedAsLegacy(const std::string &trace, const std::string &format)
{
    for (const vg::ReplayReport &r :
         replayBothEntries(trace, vg::ReplayPolicy::Strict)) {
        ASSERT_TRUE(r.error.has_value());
        EXPECT_EQ(r.error->cause, vg::TraceErrorCause::BadMagic);
        EXPECT_EQ(r.error->byteOffset, 0u);
        EXPECT_NE(r.error->detail.find(format), std::string::npos)
            << r.error->detail;
        EXPECT_NE(r.error->detail.find("legacy"), std::string::npos)
            << r.error->detail;
        EXPECT_EQ(r.eventsDelivered, 0u);
    }
    for (const vg::ReplayReport &r :
         replayBothEntries(trace, vg::ReplayPolicy::Salvage)) {
        EXPECT_EQ(r.eventsDelivered, 0u);
        EXPECT_TRUE(r.truncated);
        EXPECT_FALSE(r.sawTrailer);
        ASSERT_FALSE(r.errors.empty());
        EXPECT_EQ(r.errors[0].cause, vg::TraceErrorCause::BadMagic);
    }
}

TEST(LegacyInput, Sgb1TraceFailsAsBadMagic)
{
    expectRejectedAsLegacy(legacySgb1Trace(), "SGB1");
}

TEST(LegacyInput, Sgb2TraceFailsAsBadMagic)
{
    expectRejectedAsLegacy(legacySgb2Trace(), "SGB2");
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

/** The fatal replayTraceFile() exits naming the legacy format. */
void
expectFatalNamesLegacy(const std::string &trace, const std::string &format)
{
    const std::string path = ::testing::TempDir() + "/legacy." + format;
    std::ofstream(path, std::ios::binary) << trace;
    vg::Guest g("robust");
    EXPECT_EXIT(vg::replayTraceFile(path, g), ::testing::ExitedWithCode(1),
                "bad magic.*" + format + " is a legacy trace format");
    std::remove(path.c_str());
}

// The text-trace case of the fatal entry point is
// TraceIo.ReplayRejectsGarbage.
TEST(LegacyInputDeathTest, FatalReplayTraceFileNamesSgb1)
{
    expectFatalNamesLegacy(legacySgb1Trace(), "SGB1");
}

TEST(LegacyInputDeathTest, FatalReplayTraceFileNamesSgb2)
{
    expectFatalNamesLegacy(legacySgb2Trace(), "SGB2");
}

// ---------------------------------------------------------------------
// Adversarial bytes: the decoder must be bounds-checked everywhere
// ---------------------------------------------------------------------

TEST(AdversarialInput, UnterminatedPreambleVarintIsContained)
{
    std::string bad = "SGB3";
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
    std::string bad = "SGB3";
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
        // Half the buffers masquerade as SGB3 to reach the frame layer.
        if (i % 2 == 0 && junk.size() > 4)
            junk.replace(0, 4, "SGB3");
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
    std::string t = tracePreamble("robust");
    std::string fns;
    putVarint(fns, 0);
    putVarint(fns, 4);
    fns += "main";
    t += makeFrame(kTagFunctions, 0, 0, 0, fns);

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
    const std::string frame = makeFrame(kTagEvents, 1, 0, 4, events);
    const std::size_t payload_at = t.size() + frame.size() - events.size();
    t += frame;
    t += makeFrame(kTagEnd, 2, 4, 0, {});

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

TEST(MappedTrace, MissingFileReportsError)
{
    vg::MappedTraceFile mapped("/nonexistent/sigil/trace/file");
    EXPECT_FALSE(mapped.ok());
    EXPECT_FALSE(mapped.errorDetail().empty());
}

// ---------------------------------------------------------------------
// LZ block codec
// ---------------------------------------------------------------------

std::string
lzRoundTrip(const std::string &src, bool *stored = nullptr)
{
    std::vector<char> comp(lzCompressBound(src.size()));
    std::size_t n = lzCompress(src.data(), src.size(), comp.data(),
                               comp.size());
    if (stored)
        *stored = n == 0;
    if (n == 0)
        return src; // caller stores raw, as the SGB3 writer does
    std::string out(src.size(), '\0');
    EXPECT_TRUE(lzDecompress(comp.data(), n, out.data(), out.size()));
    return out;
}

TEST(LzCodec, RoundTripsRepresentativePayloads)
{
    Rng rng(0x51);
    std::vector<std::string> inputs;
    inputs.emplace_back();                      // empty
    inputs.emplace_back("x");                   // single byte
    inputs.emplace_back(std::string(100000, '\0')); // long run
    {
        std::string rep;
        for (int i = 0; i < 5000; ++i)
            rep += "\x01\x82\x33\x07";          // event-record shaped
        inputs.push_back(rep);
    }
    {
        std::string rnd(4096, '\0');
        for (char &c : rnd)
            c = static_cast<char>(rng.nextBounded(256));
        inputs.push_back(rnd);                  // incompressible
    }
    for (const std::string &src : inputs) {
        SCOPED_TRACE("input size " + std::to_string(src.size()));
        EXPECT_EQ(lzRoundTrip(src), src);
    }

    // Compressible payloads must actually shrink under the SGB3
    // writer's "store only if smaller" cap...
    const std::string &runs = inputs[2];
    std::vector<char> comp(runs.size());
    std::size_t n = lzCompress(runs.data(), runs.size(), comp.data(),
                               runs.size() - 1);
    ASSERT_GT(n, 0u);
    EXPECT_LT(n, runs.size() / 10);
    // ...and random bytes must fall back to stored-raw.
    const std::string &rnd = inputs.back();
    EXPECT_EQ(lzCompress(rnd.data(), rnd.size(), comp.data(),
                         rnd.size() - 1),
              0u);
}

TEST(LzCodec, DecompressRejectsTruncatedStreams)
{
    std::string src;
    Rng rng(0x52);
    for (int i = 0; i < 2000; ++i)
        src.push_back(static_cast<char>(
            rng.nextBounded(4) ? 'a' + rng.nextBounded(4)
                               : rng.nextBounded(256)));
    std::vector<char> comp(lzCompressBound(src.size()));
    std::size_t n = lzCompress(src.data(), src.size(), comp.data(),
                               comp.size());
    ASSERT_GT(n, 0u);

    std::string out(src.size(), '\0');
    ASSERT_TRUE(lzDecompress(comp.data(), n, out.data(), out.size()));
    ASSERT_EQ(out, src);
    // Every proper prefix must be rejected: the stream either cuts a
    // sequence mid-way or ends before producing rawLen bytes.
    for (std::size_t cut = 0; cut < n; ++cut)
        EXPECT_FALSE(
            lzDecompress(comp.data(), cut, out.data(), out.size()))
            << "cut at " << cut;
    // Wrong rawLen in either direction is rejected too.
    std::string small(src.size() - 1, '\0');
    EXPECT_FALSE(
        lzDecompress(comp.data(), n, small.data(), small.size()));
    std::string big(src.size() + 1, '\0');
    EXPECT_FALSE(lzDecompress(comp.data(), n, big.data(), big.size()));
}

TEST(LzCodec, DecompressNeverCrashesOnGarbage)
{
    Rng rng(0x53);
    for (int i = 0; i < 256; ++i) {
        std::size_t len = 1 + rng.nextBounded(512);
        std::vector<char> junk(len);
        for (char &c : junk)
            c = static_cast<char>(rng.nextBounded(256));
        std::size_t raw = 1 + rng.nextBounded(2048);
        std::vector<char> out(raw);
        // Bounds-checked: may fail or "succeed" with garbage content,
        // but must never read or write out of range (ASan-verified in
        // the sanitizer test runs).
        (void)lzDecompress(junk.data(), junk.size(), out.data(), raw);
    }
}

// ---------------------------------------------------------------------
// Salvage recovery
// ---------------------------------------------------------------------

TEST(SalvageRecovery, TruncationAtEveryOffsetNeverCrashes)
{
    TraceParams p{33, 0, 0, true, false, false};
    std::string trace = recordTrace(p, 32, 250);
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

TEST(SalvageRecovery, AnySingleCorruptBlockIsSkippedPrecisely)
{
    TraceParams p{44, 0, 0, true, false, false};
    std::string trace = recordTrace(p, 64);
    std::uint64_t total = recordedTotal(trace);
    std::vector<vg::FrameInfo> blocks = vg::scanFrames(trace);

    for (std::size_t vi = 0; vi < blocks.size(); ++vi) {
        const vg::FrameInfo &victim = blocks[vi];
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
        EXPECT_FALSE(salvage.out.profile.empty());
    }
}

TEST(SalvageRecovery, DamagedHeaderResynchronizesOnNextFrame)
{
    TraceParams p{45, 0, 0, true, false, false};
    std::string trace = recordTrace(p, 64);
    std::uint64_t total = recordedTotal(trace);
    std::vector<vg::FrameInfo> blocks = vg::scanFrames(trace);
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

TEST(SalvageRecovery, DuplicatedBlockIsDroppedAsStale)
{
    TraceParams p{55, 0, 0, true, false, false};
    std::string trace = recordTrace(p, 64);
    std::uint64_t total = recordedTotal(trace);
    ReplayOutcome ref = replayBinary(trace, p, vg::ReplayPolicy::Strict);

    std::vector<vg::FrameInfo> blocks = vg::scanFrames(trace);
    const vg::FrameInfo *victim = nullptr;
    for (const vg::FrameInfo &b : blocks)
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
    EXPECT_EQ(o.out.profile, ref.out.profile);
}

TEST(SalvageRecovery, ReorderedBlocksAreAccounted)
{
    TraceParams p{56, 0, 0, true, false, false};
    std::string trace = recordTrace(p, 64);
    std::uint64_t total = recordedTotal(trace);
    std::vector<vg::FrameInfo> blocks = vg::scanFrames(trace);

    // Swap two adjacent event frames.
    const vg::FrameInfo *a = nullptr, *b = nullptr;
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
        FaultPlan plan = FaultPlan::fromSeed(seed);
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
    TraceParams p{66, 0, 0, true, false, false};
    std::string pristine = recordTrace(p, 64, 800);
    std::uint64_t total = recordedTotal(pristine);
    int bounded = 0;

    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        FaultPlan plan = FaultPlan::fromSeed(seed);
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

// ---------------------------------------------------------------------
// Text-format structured errors (profile, events)
// ---------------------------------------------------------------------

TEST(ProfileIo, ParserReportsLineAndOffset)
{
    TraceParams p{88, 0, 0, true, true, false};
    ReplayOutcome o = replayBinary(recordTrace(p, 4096), p,
                                   vg::ReplayPolicy::Strict);
    ASSERT_FALSE(o.out.profile.empty());
    ASSERT_FALSE(o.out.events.empty());

    {
        std::istringstream is(o.out.profile);
        vg::TraceError e;
        EXPECT_TRUE(core::tryReadProfile(is, e).has_value());
    }
    {
        std::istringstream is(o.out.events);
        vg::TraceError e;
        EXPECT_TRUE(core::tryReadEvents(is, e).has_value());
    }

    // Corrupt one numeric field of a row line; the error names the
    // exact line, its byte offset, and the offending token.
    std::vector<std::string> lines;
    {
        std::istringstream is(o.out.profile);
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
        std::string cut = o.out.profile.substr(0, o.out.profile.rfind("end"));
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

TEST(CheckpointResume2, MismatchedTraceOrConfigStartsFresh)
{
    TraceParams pa{121, 0, 0, true, false, false};
    TraceParams pb{122, 0, 0, true, false, false};
    std::string trace_a = recordTrace(pa, 64);
    std::string trace_b = recordTrace(pb, 64);
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
                  .out.profile);

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
                  .out.profile);

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
        replayBinary(trace_a, pa, vg::ReplayPolicy::Strict).out.profile;
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
// Round trips and fatal replay of bad input
// ---------------------------------------------------------------------

TEST(BinaryTrace, RoiRoundTrips)
{
    // ROI marks survive the trace: an roiOnly profiler sees identical
    // windows live and from the replayed binary trace, through the
    // fatal stream and file entry points alike.
    TraceParams p{2222, 0, 0, true, false, true};

    vg::Guest g("trace_roundtrip");
    core::SigilConfig scfg;
    scfg.roiOnly = true;
    core::SigilProfiler live(scfg);
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder brec(bos);
    g.addTool(&live);
    g.addTool(&brec);
    TraceDriver(p).drive(g, 6000);

    std::ostringstream live_pos;
    core::writeProfile(live_pos, live.takeProfile());

    vg::Guest rg("trace_roundtrip");
    core::SigilProfiler prof(scfg);
    rg.addTool(&prof);
    std::istringstream is(bos.str(), std::ios::binary);
    const std::uint64_t events = vg::replayBinaryTrace(is, rg);
    EXPECT_EQ(events, brec.eventsWritten());
    std::ostringstream pos;
    core::writeProfile(pos, prof.takeProfile());
    EXPECT_EQ(live_pos.str(), pos.str());

    const std::string path = ::testing::TempDir() + "/roi_round_trip.trace";
    std::ofstream(path, std::ios::binary) << bos.str();
    vg::Guest fg("trace_roundtrip");
    core::SigilProfiler file_prof(scfg);
    fg.addTool(&file_prof);
    EXPECT_EQ(vg::replayTraceFile(path, fg), events);
    std::ostringstream file_pos;
    core::writeProfile(file_pos, file_prof.takeProfile());
    EXPECT_EQ(live_pos.str(), file_pos.str());
    std::remove(path.c_str());
}

/**
 * Test-side copy of the recorder's encoder as it was written with one
 * std::string push_back per byte: the byte-for-byte reference for the
 * raw-cursor encoder. Attached beside a BinaryTraceRecorder (or fed
 * the same direct calls), it must produce the same file.
 */
class StringRecorder : public vg::Tool
{
  public:
    StringRecorder(std::string &out, std::size_t block_events)
        : out_(out), maxBlockEvents_(block_events)
    {}

    void
    attach(const vg::Guest &guest) override
    {
        Tool::attach(guest);
        out_ += tracePreamble(guest.programName());
    }
    void
    fnEnter(vg::ContextId ctx, vg::CallNum) override
    {
        const vg::FunctionId fn = guest_->contexts().function(ctx);
        const auto id = static_cast<std::uint32_t>(fn);
        if (emitted_.insert(fn).second) {
            putVarint(pendingFns_, id);
            const std::string &name = guest_->functions().name(fn);
            putVarint(pendingFns_, name.size());
            pendingFns_ += name;
        }
        block_.push_back(6);
        putVarint(block_, id);
        endEvent();
    }
    void fnLeave(vg::ContextId, vg::CallNum) override { event(7); }
    void memRead(vg::Addr a, unsigned size) override { access(1, a, size); }
    void memWrite(vg::Addr a, unsigned size) override { access(2, a, size); }
    void
    op(std::uint64_t iops, std::uint64_t flops) override
    {
        block_.push_back(3);
        putVarint(block_, iops);
        putVarint(block_, flops);
        endEvent();
    }
    void branch(bool taken) override { event(taken ? 4 : 5); }
    void
    threadSwitch(vg::ThreadId tid) override
    {
        block_.push_back(8);
        putVarint(block_, tid);
        endEvent();
    }
    void barrier() override { event(9); }
    void roi(bool active) override { event(active ? 10 : 11); }
    void
    finish() override
    {
        flush();
        std::string shutdown;
        putVarint(shutdown, events_);
        frame(0x03, shutdown, events_, 0);
        frame(kTagEnd, {}, events_, 0);
    }

  private:
    void
    event(char opcode)
    {
        block_.push_back(opcode);
        endEvent();
    }
    void
    access(char opcode, vg::Addr addr, unsigned size)
    {
        block_.push_back(opcode);
        putVarint(block_, zigzag(static_cast<std::int64_t>(addr - prev_)));
        putVarint(block_, size);
        prev_ = addr;
        endEvent();
    }
    void
    endEvent()
    {
        ++events_;
        if (++blockEvents_ >= maxBlockEvents_)
            flush();
    }
    void
    flush()
    {
        const std::uint64_t first = events_ - blockEvents_;
        if (!pendingFns_.empty()) {
            frame(kTagFunctions, pendingFns_, first, 0);
            pendingFns_.clear();
        }
        if (blockEvents_ == 0)
            return;
        frame(kTagEvents, block_, first, blockEvents_);
        prev_ = 0;
        block_.clear();
        blockEvents_ = 0;
    }
    void
    frame(std::uint8_t tag, std::string payload, std::uint64_t first,
          std::uint64_t count)
    {
        const std::size_t raw_len = payload.size();
        bool compressed = false;
        if (payload.size() >= 32) {
            std::string comp(payload.size() - 1, '\0');
            const std::size_t n = lzCompress(payload.data(), payload.size(),
                                             comp.data(), comp.size());
            if (n != 0) {
                compressed = true;
                payload = comp.substr(0, n);
            }
        }
        std::string f = "\xa7SB\xb3";
        f.push_back(static_cast<char>(tag));
        putVarint(f, seq_++);
        putVarint(f, first);
        putVarint(f, count);
        putVarint(f, payload.size());
        f.push_back(compressed ? 1 : 0);
        putVarint(f, raw_len);
        putU32le(f, crc32c(payload.data(), payload.size()));
        putU32le(f, crc32c(f.data(), f.size()));
        out_ += f + payload;
    }

    std::string &out_;
    std::size_t maxBlockEvents_;
    std::string block_;
    std::string pendingFns_;
    std::set<vg::FunctionId> emitted_;
    std::size_t blockEvents_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t prev_ = 0;
    std::uint64_t events_ = 0;
};

/** One delivered event, as a replay hands it to a tool. */
struct SeenEvent
{
    char kind;
    std::uint64_t a;
    std::uint64_t b;
    std::string name;

    bool operator==(const SeenEvent &) const = default;
};

/** Logs every event it is handed, enters by function name. */
class EventLog : public vg::Tool
{
  public:
    void
    fnEnter(vg::ContextId ctx, vg::CallNum) override
    {
        const vg::FunctionId fn = guest_->contexts().function(ctx);
        seen.push_back({'E', 0, 0, guest_->functions().name(fn)});
    }
    void
    memRead(vg::Addr a, unsigned size) override
    {
        seen.push_back({'R', a, size, {}});
    }
    void
    memWrite(vg::Addr a, unsigned size) override
    {
        seen.push_back({'W', a, size, {}});
    }
    void
    op(std::uint64_t iops, std::uint64_t flops) override
    {
        seen.push_back({'O', iops, flops, {}});
    }
    void
    threadSwitch(vg::ThreadId tid) override
    {
        seen.push_back({'T', tid, 0, {}});
    }

    std::vector<SeenEvent> seen;
};

class RecorderWidth : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(RecorderWidth, WidestEventsFillWholeBlocksByteIdentically)
{
    // Every event at its widest encoding: 21-byte ops, accesses whose
    // zig-zag delta takes 10 bytes and whose size 2^30 takes 5, a
    // thread switch to the last thread id replay accepts, and an enter
    // of a function id past 2^14 (3 bytes). Whole blocks of them must
    // stay inside the recorder's worst-case block buffer (an overrun
    // fails under AddressSanitizer) and leave the same bytes as the
    // string encoder.
    const std::size_t block_events = GetParam();
    QuietLogs quiet; // both guests finish with the enters still open
    constexpr vg::Addr kLo = vg::kHeapBase;
    constexpr vg::Addr kHi = vg::Addr{1} << 63;
    constexpr unsigned kSize = 1u << 30;
    constexpr vg::ThreadId kLastThread = (1u << 16) - 1;
    constexpr std::uint64_t kMax = ~std::uint64_t{0};

    vg::Guest g("wide");
    vg::FunctionId big = 0;
    for (int i = 0; i < 20000; ++i)
        big = g.fn("f" + std::to_string(i));
    ASSERT_GE(big, 1 << 14);
    std::ostringstream bos(std::ios::binary);
    vg::BinaryTraceRecorder rec(bos, block_events);
    std::string want;
    StringRecorder ref(want, block_events);
    g.addTool(&rec);
    g.addTool(&ref);

    // One cycle of six events; an access at kHi after a reset chain or
    // after kLo, and one at kLo after kHi, each take a 10-byte delta.
    std::vector<SeenEvent> expect;
    const std::size_t total = 3 * block_events;
    for (std::size_t i = 0; i < total; ++i) {
        switch (i % 6) {
          case 0:
            g.enter(big);
            expect.push_back({'E', 0, 0, "f19999"});
            break;
          case 1:
            for (vg::Tool *t : {static_cast<vg::Tool *>(&rec),
                                static_cast<vg::Tool *>(&ref)})
                t->op(kMax, kMax);
            // Replay retires an op's iops and flops separately.
            expect.push_back({'O', kMax, 0, {}});
            expect.push_back({'O', 0, kMax, {}});
            break;
          case 2:
            rec.memRead(kHi, kSize);
            ref.memRead(kHi, kSize);
            expect.push_back({'R', kHi, kSize, {}});
            break;
          case 3:
            rec.memWrite(kLo, kSize);
            ref.memWrite(kLo, kSize);
            expect.push_back({'W', kLo, kSize, {}});
            break;
          case 4:
            rec.threadSwitch(kLastThread);
            ref.threadSwitch(kLastThread);
            expect.push_back({'T', kLastThread, 0, {}});
            break;
          case 5:
            rec.threadSwitch(0);
            ref.threadSwitch(0);
            expect.push_back({'T', 0, 0, {}});
            break;
        }
    }
    EXPECT_EQ(rec.eventsWritten(), total);
    g.finish();
    ASSERT_EQ(bos.str(), want);

    vg::Guest rg("wide");
    EventLog log;
    rg.addTool(&log);
    std::istringstream is(bos.str(), std::ios::binary);
    EXPECT_EQ(vg::replayBinaryTrace(is, rg), expect.size());
    EXPECT_TRUE(log.seen == expect);
}

INSTANTIATE_TEST_SUITE_P(BlockEvents, RecorderWidth,
                         ::testing::Values(1, 7, 4096));

TEST(RecorderEncoding, FixtureStreamsMatchTheStringEncoder)
{
    // The generator's mixed streams, through a spread of block sizes.
    for (std::size_t block_events : {1, 7, 512, 4096}) {
        for (const TraceParams &p :
             {TraceParams{11, 0, 0, false, true, false},
              TraceParams{12, 3, 0, true, false, true},
              TraceParams{13, 0, 4, true, true, false}}) {
            vg::Guest g("fixture");
            std::ostringstream bos(std::ios::binary);
            vg::BinaryTraceRecorder rec(bos, block_events);
            std::string want;
            StringRecorder ref(want, block_events);
            g.addTool(&rec);
            g.addTool(&ref);
            TraceDriver(p).drive(g, 4000);
            EXPECT_EQ(bos.str(), want)
                << paramsName(p) << " block_events " << block_events;
        }
    }
}

TEST(BinaryTraceDeath, RejectsBlocksThatCanPassThePayloadCap)
{
    // Replay refuses a frame whose raw payload passes 64 MiB, so a block
    // size whose worst case could pass it is refused up front.
    std::ostringstream os(std::ios::binary);
    EXPECT_EXIT(vg::BinaryTraceRecorder(os, std::size_t{1} << 22),
                ::testing::ExitedWithCode(1), "payload cap");
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
    std::string binary =
        recordTrace(p, vg::BinaryTraceRecorder::kBlockEvents, 6000);
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
