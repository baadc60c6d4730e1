/**
 * @file
 * Deterministic trace-corruption harness for the salvage suites.
 *
 * The salvage and checkpoint machinery is only trustworthy if it is
 * exercised against realistic damage, and "realistic damage" must be
 * reproducible or a failing seed cannot be debugged. A FaultPlan is a
 * pure function of its seed (support/rng SplitMix64): it derives a
 * fault kind and all of its parameters — which byte, which frame, how
 * many bits — from the seed alone, then mutates an in-memory trace
 * image in place. Tests sweep seeds and assert the ingestion contract:
 * never crash, always account for the loss in the ReplayReport.
 *
 * Frame-targeted kinds use vg::scanFrames() to aim at real frame
 * boundaries; byte-level kinds work on any input.
 */

#ifndef SIGIL_TESTS_FAULT_PLAN_HH
#define SIGIL_TESTS_FAULT_PLAN_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "support/rng.hh"
#include "vg/trace_io.hh"

namespace sigil::fixtures {

/** The damage a FaultPlan inflicts. */
enum class FaultKind
{
    BitFlips,       ///< flip 1..8 random bits anywhere in the image
    Truncate,       ///< cut the image at a random offset
    GarbageBurst,   ///< overwrite a random run with random bytes
    DuplicateBlock, ///< repeat one frame (stale-block path)
    ReorderBlocks,  ///< swap two adjacent event frames
};

namespace fault_detail {

inline std::string
describe(const char *fmt, std::uint64_t a, std::uint64_t b,
         std::uint64_t c)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(c));
    return buf;
}

inline std::string
applyBitFlips(Rng &rng, std::string &trace)
{
    std::uint64_t bits = 1 + rng.nextBounded(8);
    std::uint64_t lo = trace.size(), hi = 0;
    for (std::uint64_t i = 0; i < bits; ++i) {
        std::uint64_t off = rng.nextBounded(trace.size());
        trace[static_cast<std::size_t>(off)] ^=
            static_cast<char>(1u << rng.nextBounded(8));
        lo = std::min(lo, off);
        hi = std::max(hi, off + 1);
    }
    return describe("bit-flips: %llu bits in [%llu, %llu)", bits, lo, hi);
}

inline std::string
applyTruncate(Rng &rng, std::string &trace)
{
    // Keep at least one byte so "empty file" stays a separate case.
    std::uint64_t cut = 1 + rng.nextBounded(trace.size() - 1);
    std::uint64_t lost = trace.size() - cut;
    trace.resize(static_cast<std::size_t>(cut));
    return describe("truncate: at %llu (%llu bytes lost)", cut, lost, 0);
}

inline std::string
applyGarbageBurst(Rng &rng, std::string &trace)
{
    std::uint64_t len =
        1 + rng.nextBounded(std::min<std::uint64_t>(trace.size(), 512));
    std::uint64_t off = rng.nextBounded(trace.size() - len + 1);
    for (std::uint64_t i = 0; i < len; ++i)
        trace[static_cast<std::size_t>(off + i)] =
            static_cast<char>(rng.next());
    return describe("garbage-burst: %llu bytes at %llu", len, off, 0);
}

inline std::string
applyDuplicateBlock(Rng &rng, std::string &trace)
{
    std::vector<vg::FrameInfo> frames = vg::scanFrames(trace);
    if (frames.empty())
        return applyGarbageBurst(rng, trace);
    const vg::FrameInfo &f =
        frames[static_cast<std::size_t>(rng.nextBounded(frames.size()))];
    std::string copy = trace.substr(static_cast<std::size_t>(f.offset),
                                    static_cast<std::size_t>(f.length));
    trace.insert(static_cast<std::size_t>(f.offset + f.length), copy);
    return describe("duplicate-block: frame at %llu (%llu bytes)",
                    f.offset, f.length, 0);
}

inline std::string
applyReorderBlocks(Rng &rng, std::string &trace)
{
    // Swap two adjacent *event* frames: swapping a function-table
    // frame past the events that need it would test name loss, which
    // DuplicateBlock-style staleness does not intend to cover here.
    std::vector<vg::FrameInfo> frames = vg::scanFrames(trace);
    std::vector<std::size_t> events;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (frames[i].tag == 0x02)
            events.push_back(i);
    }
    // Adjacent pairs need adjacent frames too (no function frame in
    // between), or the swap would not be a pure reorder.
    std::vector<std::size_t> pairs;
    for (std::size_t k = 0; k + 1 < events.size(); ++k) {
        const vg::FrameInfo &a = frames[events[k]];
        const vg::FrameInfo &b = frames[events[k] + 1];
        if (events[k] + 1 == events[k + 1] &&
            a.offset + a.length == b.offset)
            pairs.push_back(events[k]);
    }
    if (pairs.empty())
        return applyGarbageBurst(rng, trace);
    const vg::FrameInfo &a =
        frames[pairs[static_cast<std::size_t>(
            rng.nextBounded(pairs.size()))]];
    const vg::FrameInfo &b = frames[&a - frames.data() + 1];
    std::string first = trace.substr(static_cast<std::size_t>(a.offset),
                                     static_cast<std::size_t>(a.length));
    std::string second = trace.substr(static_cast<std::size_t>(b.offset),
                                      static_cast<std::size_t>(b.length));
    trace.replace(static_cast<std::size_t>(a.offset),
                  static_cast<std::size_t>(a.length + b.length),
                  second + first);
    return describe("reorder-blocks: frames at %llu and %llu", a.offset,
                    b.offset, 0);
}

} // namespace fault_detail

/** One deterministic corruption, fully derived from a seed. */
struct FaultPlan
{
    FaultKind kind = FaultKind::BitFlips;
    std::uint64_t seed = 0;

    /**
     * Derive a plan from a seed: the kind is chosen uniformly and the
     * same seed then parameterizes apply(), so seed N always produces
     * the identical corruption on the identical input.
     */
    static FaultPlan
    fromSeed(std::uint64_t seed)
    {
        Rng rng(seed);
        FaultPlan plan;
        plan.seed = seed;
        plan.kind = static_cast<FaultKind>(rng.nextBounded(5));
        return plan;
    }

    /**
     * Corrupt a trace image in place. Frame-targeted kinds fall back
     * to byte-level damage when the image has no (or too few) valid
     * frames, so apply() always changes something on non-trivial
     * input. Returns a description of what was done (for test
     * diagnostics), e.g. "bit-flips: 3 bits in [1042, 1812)".
     */
    std::string
    apply(std::string &trace) const
    {
        using namespace fault_detail;
        if (trace.size() < 2)
            return "no-op: trace too small";
        Rng rng(seed);
        rng.next(); // burn the kind-selection draw of fromSeed()
        switch (kind) {
        case FaultKind::BitFlips:
            return applyBitFlips(rng, trace);
        case FaultKind::Truncate:
            return applyTruncate(rng, trace);
        case FaultKind::GarbageBurst:
            return applyGarbageBurst(rng, trace);
        case FaultKind::DuplicateBlock:
            return applyDuplicateBlock(rng, trace);
        case FaultKind::ReorderBlocks:
            return applyReorderBlocks(rng, trace);
        }
        return "no-op: unknown kind";
    }
};

} // namespace sigil::fixtures

#endif // SIGIL_TESTS_FAULT_PLAN_HH
