/**
 * @file
 * Batched (slab-grain) operand kernels with runtime SIMD dispatch.
 *
 * The simulator's data-supply path — synthesizing operand values and
 * classifying them through the term LUT — used to run value-at-a-time
 * scalar loops. These helpers operate on whole slabs instead: a flat
 * run of bfloat16 values (one phase burst's A or B operands, a whole
 * benchmark workload) processed 8..64 values per iteration.
 *
 * Dispatch policy: every entry point has a portable scalar body that
 * defines the semantics. On x86-64 the dispatcher picks the widest
 * tier the host supports out of SSE2 (always present — part of the
 * base ISA), AVX2, and AVX-512 (F+BW), probed once at startup via
 * __builtin_cpu_supports. The `FPRAKER_SIMD` environment variable
 * pins the tier instead (`scalar`, `sse2`, `avx2`, `avx512`); an
 * unknown value, or a tier the build or host cannot run, is a fatal
 * error — tests and CI rely on a forced tier never degrading
 * silently. All bodies are integer-exact over the same bit patterns,
 * so the selected tier can never change a result — only wall-clock.
 * Fuzz coverage in tests/test_simd_tiers.cpp pins every compiled tier
 * against the scalar bodies; tests/test_fastpath.cpp pins the
 * dispatched entry points.
 *
 * Counting design note: the AVX2/AVX-512 tiers count terms with a
 * 16-entry in-register nibble table (pshufb) instead of walking the
 * 256-entry memory LUT. For the canonical (NAF) encoding this uses
 * the identity  termCount(x) == popcount(x ^ 3x)  — the xor-fold
 * turns the recoding into a plain population count, which the nibble
 * LUT then evaluates 32/64 significands at a time (see
 * TermLut::nibbleLut() and docs/PERFORMANCE.md). SSE2 predates
 * pshufb (SSSE3), so that tier keeps the memory-LUT walk.
 */

#ifndef FPRAKER_NUMERIC_SLAB_OPS_H
#define FPRAKER_NUMERIC_SLAB_OPS_H

#include <cstddef>
#include <cstdint>

#include "numeric/bfloat16.h"

namespace fpraker {
namespace slab {

/**
 * 16-entry in-register term-count table (see TermLut::nibbleLut()).
 * `pop4[v]` is the population count of the 4-bit value @p v. When
 * @p nafFold is set the significand is first folded as x ^ (3x)
 * (computed in 16-bit width — 3x overflows 8 bits), which maps the
 * canonical NAF digit count onto a plain popcount; RawBits counts
 * set bits directly.
 */
struct NibbleCountLut
{
    uint8_t pop4[16];
    bool nafFold;
};

/** Runtime dispatch tiers, narrowest to widest. */
enum class SimdTier
{
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
    Avx512 = 3,
};

inline constexpr int kNumSimdTiers = 4;

/** Lower-case tier name: "scalar", "sse2", "avx2", "avx512". */
const char *tierName(SimdTier tier);

/** True when this build contains a body for @p tier. */
bool tierCompiled(SimdTier tier);

/** True when this build AND the host CPU can execute @p tier. */
bool tierSupported(SimdTier tier);

/**
 * Parse a FPRAKER_SIMD value ("scalar"/"sse2"/"avx2"/"avx512").
 * Returns false on an unknown spelling (the dispatcher treats that as
 * fatal; tests use this to probe without dying).
 */
bool parseSimdTier(const char *text, SimdTier *out);

/**
 * The tier the dispatched entry points run at: the widest supported
 * tier, or the tier forced via FPRAKER_SIMD. Resolved once on first
 * use; an unknown FPRAKER_SIMD value or a forced tier the host can't
 * execute is a fatal error.
 */
SimdTier activeTier();

/** Name of activeTier(): "avx512", "avx2", "sse2", or "scalar". */
const char *simdLevel();

/**
 * Count zero values and total encoded terms over a value slab.
 * @p counts is a 256-entry per-significand term-count table and
 * @p nib the matching 16-entry nibble table (use
 * TermLut::countsTable() / TermLut::nibbleLut()); counts[0] must be 0
 * so zero values add no terms. Adds to *zeros / *terms.
 */
void countTerms(const BFloat16 *values, size_t n,
                const uint8_t counts[256], const NibbleCountLut &nib,
                uint64_t *zeros, uint64_t *terms);

/**
 * Assemble bfloat16 bit patterns from SoA field planes:
 * out[i] = neg[i]<<15 | (biased_exp[i] & 0xff)<<7 | (man[i] & 0x7f).
 * A zero value is represented as all-zero planes. @p neg entries are
 * 0 or 1.
 */
void packBf16(const int16_t *biased_exp, const uint8_t *man,
              const uint8_t *neg, size_t n, BFloat16 *out);

// Fixed (non-dispatched) reference bodies, exposed for differential
// tests.
void countTermsScalar(const BFloat16 *values, size_t n,
                      const uint8_t counts[256], uint64_t *zeros,
                      uint64_t *terms);
void packBf16Scalar(const int16_t *biased_exp, const uint8_t *man,
                    const uint8_t *neg, size_t n, BFloat16 *out);

// Per-tier entry points for the differential tier fuzz
// (tests/test_simd_tiers.cpp). Callers must check tierSupported()
// first; an unsupported tier is a panic, not a fallback.
void countTermsAt(SimdTier tier, const BFloat16 *values, size_t n,
                  const uint8_t counts[256], const NibbleCountLut &nib,
                  uint64_t *zeros, uint64_t *terms);
void packBf16At(SimdTier tier, const int16_t *biased_exp,
                const uint8_t *man, const uint8_t *neg, size_t n,
                BFloat16 *out);

} // namespace slab
} // namespace fpraker

#endif // FPRAKER_NUMERIC_SLAB_OPS_H
