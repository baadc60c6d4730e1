/**
 * @file
 * Deterministic trace-corruption harness.
 *
 * The salvage and checkpoint machinery is only trustworthy if it is
 * exercised against realistic damage, and "realistic damage" must be
 * reproducible or a failing seed cannot be debugged. A FaultPlan is a
 * pure function of its seed (support/rng SplitMix64): it derives a
 * fault kind and all of its parameters — which byte, which block, how
 * many bits — from the seed alone, then mutates an in-memory trace
 * image in place. Tests sweep seeds and assert the ingestion contract:
 * never crash, always account for the loss in the ReplayReport.
 *
 * Block-targeted kinds use scanSgb2Blocks() to aim at real frame
 * boundaries; byte-level kinds work on any input.
 */

#ifndef SIGIL_VG_FAULT_INJECTION_HH
#define SIGIL_VG_FAULT_INJECTION_HH

#include <cstdint>
#include <string>

namespace sigil::vg {

/** The damage a FaultPlan inflicts. */
enum class FaultKind
{
    BitFlips,       ///< flip 1..8 random bits anywhere in the image
    Truncate,       ///< cut the image at a random offset
    GarbageBurst,   ///< overwrite a random run with random bytes
    DuplicateBlock, ///< repeat one frame (stale-block path)
    ReorderBlocks,  ///< swap two adjacent event frames
};

/** Human-readable kind name ("bit-flips", "truncate", ...). */
const char *faultKindName(FaultKind kind);

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
    static FaultPlan fromSeed(std::uint64_t seed);

    /**
     * Corrupt a trace image in place. Block-targeted kinds fall back
     * to byte-level damage when the image has no (or too few) valid
     * SGB2/SGB3 frames, so apply() always changes something on non-trivial
     * input. Returns a description of what was done (for test
     * diagnostics), e.g. "bit-flips: 3 bits in [1042, 1812)".
     */
    std::string apply(std::string &trace) const;
};

} // namespace sigil::vg

#endif // SIGIL_VG_FAULT_INJECTION_HH
