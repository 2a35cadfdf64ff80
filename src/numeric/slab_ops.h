/**
 * @file
 * Batched (slab-grain) operand kernels: the data-supply path's
 * synthesis and term classification over whole slabs of bfloat16
 * values (one phase burst's A or B operands, a benchmark workload).
 *
 * Each kernel is one plain scalar loop: the slab kernels are a sliver
 * of a figure run (docs/PERFORMANCE.md, "Scalar slab kernels"), so the
 * tree's vector code lives where the time goes — the PE-parallel
 * column, the value MAC and the FP32 dot.
 *
 * This header also holds the one switch for those bodies: each is an
 * SSE2 body under `#ifdef __SSE2__` with a scalar fallback, and
 * FPRAKER_SIMD accepts only `scalar`, which pins every fallback; any
 * other non-empty value is fatal. Both paths are integer-exact, so
 * the choice never changes a result.
 */

#ifndef FPRAKER_NUMERIC_SLAB_OPS_H
#define FPRAKER_NUMERIC_SLAB_OPS_H

#include <cstddef>
#include <cstdint>

#include "numeric/bfloat16.h"

namespace fpraker {
namespace slab {

/** The bodies the PE fast paths run. */
enum class SimdTier
{
    Scalar = 0,
    Sse2 = 1,
};

/**
 * Sse2 in builds with SSE2, unless FPRAKER_SIMD=scalar pins Scalar.
 * Resolved once on first use; any other non-empty FPRAKER_SIMD value
 * is a fatal error naming the variable.
 */
SimdTier activeTier();

/** Name of activeTier(): "sse2" or "scalar". */
const char *simdLevel();

/**
 * Count zero values and total encoded terms over a value slab.
 * @p counts is the 256-entry per-significand term-count table
 * (TermLut::countsTable(), counts[0] == 0 so zero values add no
 * terms). Adds to *zeros / *terms.
 */
void countTerms(const BFloat16 *values, size_t n,
                const uint8_t counts[256], uint64_t *zeros,
                uint64_t *terms);

/**
 * Assemble bfloat16 bit patterns from SoA field planes:
 * out[i] = neg[i]<<15 | (biased_exp[i] & 0xff)<<7 | (man[i] & 0x7f).
 * A zero value is represented as all-zero planes. @p neg entries are
 * 0 or 1.
 */
void packBf16(const int16_t *biased_exp, const uint8_t *man,
              const uint8_t *neg, size_t n, BFloat16 *out);

} // namespace slab
} // namespace fpraker

#endif // FPRAKER_NUMERIC_SLAB_OPS_H
