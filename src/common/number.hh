/**
 * @file
 * Checked numbers from text: every numeric command-line flag, the JSON
 * reader's numbers, and the number fields of the hand-written grammars
 * (cell lists, fault specs, shard and vuln campaign names, TCP ports).
 * An integer is a whole decimal that fits its type, with a leading '-'
 * only for signed types; a double is a finite decimal (no hex, inf or
 * nan). Anything else is rejected, never truncated, wrapped or
 * saturated.
 */

#ifndef SIMALPHA_COMMON_NUMBER_HH
#define SIMALPHA_COMMON_NUMBER_HH

#include <cstdint>
#include <string>

namespace simalpha {

bool parseNumber(const std::string &text, std::uint64_t *out);
bool parseNumber(const std::string &text, int *out);
bool parseNumber(const std::string &text, double *out);

/** @p text as the value of numeric flag @p flag (T: std::uint64_t, int
 *  or double); throws ConfigError naming the flag when it is not. */
template <class T>
T flagNumber(const std::string &flag, const std::string &text);

} // namespace simalpha

#endif // SIMALPHA_COMMON_NUMBER_HH
