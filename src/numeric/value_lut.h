/**
 * @file
 * Whole-bf16 decoded-value lookup table (the value memoization grain).
 *
 * TermLut memoizes the NAF recoding of the 8-bit significand domain,
 * but the PE hot paths still re-derive the remaining per-value fields
 * (sign, exponents, significand extraction, zero/finite class, first
 * term shift, stream length) from the raw bits on every set. A bf16 is
 * only 16 bits, so the full value domain is 65536 entries: ValueLut
 * materializes every field the column front-end consumes, once per
 * encoding, and the serial-operand decode (beginSerial) replaces its
 * per-value bit manipulation with one indexed load.
 *
 * Exact by construction: the table is built by running every bit
 * pattern through the same BFloat16 accessors and TermLut streams the
 * scalar code used, and tests/test_memo.cpp differential-checks all
 * 65536 entries against TermEncoder directly.
 */

#ifndef FPRAKER_NUMERIC_VALUE_LUT_H
#define FPRAKER_NUMERIC_VALUE_LUT_H

#include <cstdint>

#include "numeric/term_lut.h"

namespace fpraker {

/** Immutable per-encoding table of all 65536 decoded bf16 values. */
class ValueLut
{
  public:
    // Entry::flags bits.
    static constexpr uint8_t kNegative = 1u << 0;
    static constexpr uint8_t kZero = 1u << 1;
    static constexpr uint8_t kFinite = 1u << 2;

    /** Everything the PE front-end derives from one bf16 value. */
    struct Entry
    {
        /** Term schedule of the significand (into the TermLut). */
        const TermStream *stream = nullptr;
        int16_t unbiasedExp = 0; //!< biasedExponent() - bias.
        int16_t biasedExp = 0;   //!< Raw 8-bit exponent field.
        uint8_t sig = 0;         //!< significand() (0 for zero).
        uint8_t nterms = 0;      //!< stream->size().
        int8_t shift0 = 0;       //!< First-term shift (nterms > 0).
        uint8_t flags = 0;       //!< kNegative | kZero | kFinite.
    };

    /**
     * Shared table for @p enc, built on first use (thread-safe,
     * function-local statics) and immutable afterwards, so concurrent
     * simulation workers read it without synchronization.
     */
    static const ValueLut &of(TermEncoding enc);

    /** Decoded entry of a raw bf16 bit pattern. */
    const Entry &entry(uint16_t bits) const { return entries_[bits]; }

    TermEncoding encoding() const { return encoding_; }

  private:
    explicit ValueLut(TermEncoding enc);

    TermEncoding encoding_;
    Entry entries_[65536];
};

} // namespace fpraker

#endif // FPRAKER_NUMERIC_VALUE_LUT_H
