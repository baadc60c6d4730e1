/**
 * @file
 * Fundamental identifier types for the instrumentation substrate.
 */

#ifndef SIGIL_VG_TYPES_HH
#define SIGIL_VG_TYPES_HH

#include <cstdint>

namespace sigil::vg {

/** A guest (synthetic) address. */
using Addr = std::uint64_t;

/** Index of a registered function. */
using FunctionId = std::int32_t;

/** Index of a calling context (a node of the context tree). */
using ContextId = std::int32_t;

/** Global, monotonically increasing call sequence number. */
using CallNum = std::uint64_t;

/** Guest thread identifier; thread 0 is the initial thread. */
using ThreadId = std::uint32_t;

/** Virtual time measured in retired guest operations. */
using Tick = std::uint64_t;

constexpr FunctionId kInvalidFunction = -1;
constexpr ContextId kInvalidContext = -1;

/** Base of the guest heap region. */
constexpr Addr kHeapBase = 0x0000000000010000ull;

/** Base of the guest scratch-stack region (argument spill slots). */
constexpr Addr kStackBase = 0x0000700000000000ull;

/** Per-thread scratch-stack stride: thread t's stack starts at
 *  kStackBase + t * kThreadStackStride. */
constexpr Addr kThreadStackStride = 0x0000000100000000ull;

/**
 * Whether the access [addr, addr + size) runs past the top of the
 * address space. An access may end exactly at byte 2^64 - 1; its last
 * byte, addr + size - 1, is what must not overflow.
 */
constexpr bool
accessWraps(Addr addr, std::uint64_t size)
{
    return size != 0 && addr + (size - 1) < addr;
}

} // namespace sigil::vg

#endif // SIGIL_VG_TYPES_HH
