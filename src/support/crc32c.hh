/**
 * @file
 * CRC32C (Castagnoli) checksums for trace framing and checkpoints.
 *
 * The framed binary trace formats protect every block payload and
 * every block header with a CRC32C so a reader can validate a block
 * before dispatching a single event from it, and checkpoint files are
 * whole-body checksummed so a torn write is detected instead of
 * resumed from. Software slicing-by-8 implementation (~1 byte/cycle);
 * the polynomial matches SSE4.2/ARMv8 hardware CRC so the trace format
 * stays compatible with a future hardware fast path.
 */

#ifndef SIGIL_SUPPORT_CRC32C_HH
#define SIGIL_SUPPORT_CRC32C_HH

#include <cstddef>
#include <cstdint>

namespace sigil {

/**
 * Incrementally extend a CRC32C. Start from 0, feed consecutive
 * ranges, and the result equals crc32c() over the concatenation.
 */
std::uint32_t crc32cExtend(std::uint32_t crc, const void *data,
                           std::size_t len);

/** CRC32C of one contiguous buffer. */
inline std::uint32_t
crc32c(const void *data, std::size_t len)
{
    return crc32cExtend(0, data, len);
}

} // namespace sigil

#endif // SIGIL_SUPPORT_CRC32C_HH
