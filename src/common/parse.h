/**
 * @file
 * The one strict decimal parser behind every count read from text: CLI
 * flags, environment knobs (FPRAKER_THREADS, FPRAKER_SAMPLE_STEPS,
 * FPRAKER_MEMO), served `batch`/`seq`/`batches` options and fault
 * counts. Strict means ASCII digits only — no sign, space, suffix or
 * exponent — and a value in [1, max]: "16x", "+5", " 8", "-1" and
 * "1e3" are all rejected, where atoi or strtoull read a number.
 */

#ifndef FPRAKER_COMMON_PARSE_H
#define FPRAKER_COMMON_PARSE_H

#include <cstdint>
#include <string_view>
#include <vector>

namespace fpraker {

/** The largest count an int-valued knob or option accepts. */
inline constexpr uint64_t kMaxIntArg = 1000000000;

/** Strict parse of a decimal integer in [1, @p max]. */
bool parsePositive(std::string_view text, uint64_t max, uint64_t *out);

/** parsePositive with max kMaxIntArg, into an int. */
bool parsePositiveInt(std::string_view text, int *out);

/**
 * A non-empty comma-separated list of parsePositiveInt values
 * ("8,16,32"); an empty entry anywhere rejects the whole list.
 */
bool parsePositiveList(std::string_view csv, std::vector<int> *out);

} // namespace fpraker

#endif // FPRAKER_COMMON_PARSE_H
