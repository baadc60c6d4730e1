/**
 * @file
 * Shared byte-level trace fixtures for the ingestion suites.
 *
 * The recorder writes SGB3 only, but replay still reads the
 * uncompressed SGB2 framing of earlier releases. These helpers build
 * frames of either framing by hand (mirroring docs/FORMATS.md §3) and
 * transcode a recorded SGB3 trace into the SGB2 trace the old writer
 * would have produced for the same run, so every suite that sweeps
 * both framings derives its SGB2 bytes from one real recording.
 */

#ifndef SIGIL_TESTS_TRACE_FIXTURES_HH
#define SIGIL_TESTS_TRACE_FIXTURES_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "support/crc32c.hh"
#include "support/lz.hh"

namespace sigil::fixtures {

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
tracePreamble(const std::string &name, const char *magic = "SGB2")
{
    std::string t(magic, 4);
    putVarint(t, 1);
    putVarint(t, name.size());
    t += name;
    return t;
}

/** Build one CRC-valid SGB2 frame around an arbitrary payload. */
inline std::string
makeFrame(std::uint8_t tag, std::uint64_t block_seq,
          std::uint64_t first_event, std::uint64_t event_count,
          const std::string &payload)
{
    std::string f = "\xa7SB\xb2";
    f.push_back(static_cast<char>(tag));
    putVarint(f, block_seq);
    putVarint(f, first_event);
    putVarint(f, event_count);
    putVarint(f, payload.size());
    putU32le(f, crc32c(payload.data(), payload.size()));
    putU32le(f, crc32c(f.data(), f.size()));
    f += payload;
    return f;
}

/** Build one CRC-valid SGB3 frame holding a raw (uncompressed) payload. */
inline std::string
makeFrame3(std::uint8_t tag, std::uint64_t block_seq,
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

/**
 * Re-frame a well-formed SGB3 trace as SGB2: the same preamble under
 * the SGB2 magic, then every frame with its tag, sequence numbers and
 * event count unchanged and its payload decompressed. The result is
 * byte for byte what the SGB2 writer of earlier releases produced for
 * the same run. Malformed input fails the calling test.
 */
inline std::string
sgb2FromSgb3(const std::string &sgb3)
{
    std::size_t pos = 0;
    bool ok = true;
    auto varint = [&]() -> std::uint64_t {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (pos >= sgb3.size())
                break;
            std::uint8_t byte = static_cast<std::uint8_t>(sgb3[pos++]);
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
        }
        ok = false;
        return 0;
    };

    if (sgb3.compare(0, 4, "SGB3") != 0) {
        ADD_FAILURE() << "sgb2FromSgb3: input is not an SGB3 trace";
        return {};
    }
    pos = 4;
    const std::uint64_t version = varint();
    const std::uint64_t name_len = varint();
    if (!ok || version != 1 || name_len > sgb3.size() - pos) {
        ADD_FAILURE() << "sgb2FromSgb3: bad preamble";
        return {};
    }
    std::string out = tracePreamble(sgb3.substr(pos, name_len));
    pos += name_len;

    while (pos < sgb3.size()) {
        if (sgb3.compare(pos, 4, "\xa7SB\xb3") != 0) {
            ADD_FAILURE() << "sgb2FromSgb3: no frame sync at " << pos;
            return out;
        }
        pos += 4;
        const std::uint8_t tag = static_cast<std::uint8_t>(sgb3[pos++]);
        const std::uint64_t block_seq = varint();
        const std::uint64_t first_event = varint();
        const std::uint64_t event_count = varint();
        const std::uint64_t stored_len = varint();
        const bool compressed = pos < sgb3.size() && (sgb3[pos++] & 1);
        const std::uint64_t raw_len = varint();
        pos += 8; // payload and header CRCs, recomputed by makeFrame
        if (!ok || pos > sgb3.size() || stored_len > sgb3.size() - pos) {
            ADD_FAILURE() << "sgb2FromSgb3: bad frame header";
            return out;
        }
        std::string raw = sgb3.substr(pos, stored_len);
        if (compressed) {
            raw.assign(raw_len, '\0');
            if (!lzDecompress(sgb3.data() + pos, stored_len, raw.data(),
                              raw.size())) {
                ADD_FAILURE() << "sgb2FromSgb3: frame does not decompress";
                return out;
            }
        }
        pos += stored_len;
        out += makeFrame(tag, block_seq, first_event, event_count, raw);
    }
    return out;
}

} // namespace sigil::fixtures

#endif // SIGIL_TESTS_TRACE_FIXTURES_HH
