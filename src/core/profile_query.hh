/**
 * @file
 * Canonical textual renderings of profile queries.
 *
 * The profile-query daemon (src/server) answers every query with text
 * produced by these functions, and the daemon's differential tests
 * call the same functions directly on in-process profiles — so "the
 * daemon is correct" reduces to byte equality between two strings
 * rendered by the same code over the same profile. Anything that
 * should be queryable over the wire gets a canonical renderer here;
 * the server adds only transport.
 */

#ifndef SIGIL_CORE_PROFILE_QUERY_HH
#define SIGIL_CORE_PROFILE_QUERY_HH

#include <cstdint>
#include <string>

#include "core/profile.hh"

namespace sigil::core {

/**
 * The full aggregate profile in the release text format — identical
 * bytes to writeProfile() on the same profile.
 */
std::string profileQueryText(const SigilProfile &profile);

/**
 * Every context row whose function name matches fn_name: one line per
 * context (display name, calls, ops, traffic, unique in/out), plus a
 * summed aggregate line. "function not found" message when no row
 * matches — still a successful query, the answer is just empty.
 */
std::string functionQueryText(const SigilProfile &profile,
                              const std::string &fn_name);

/**
 * The producer→consumer communication matrix: one line per edge with
 * both endpoints resolved to display names, unique/non-unique bytes,
 * followed by the cross-thread matrix when present.
 */
std::string edgesQueryText(const SigilProfile &profile);

/**
 * Structural diff of two profiles: the identical/differs verdict line
 * followed by diffProfiles().describe() when they differ.
 */
std::string diffQueryText(const SigilProfile &lhs,
                          const SigilProfile &rhs);

/**
 * The human-facing report pair: flatReport() over the top contexts
 * plus the program-wide commSummary().
 */
std::string summaryQueryText(const SigilProfile &profile,
                             std::size_t top_n = 20);

/**
 * Heap footprint estimate of a resident profile (rows, strings,
 * edges, objects, histograms) — the accounting unit the daemon's
 * catalog charges against its memory budget.
 */
std::uint64_t profileMemoryEstimate(const SigilProfile &profile);

} // namespace sigil::core

#endif // SIGIL_CORE_PROFILE_QUERY_HH
