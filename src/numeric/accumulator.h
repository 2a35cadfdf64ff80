/**
 * @file
 * Extended-precision accumulator shared by the FPRaker and baseline PEs.
 *
 * The paper's PE accumulates bfloat16 products into a register with a
 * 16-bit significand: 1 hidden bit, 3 further integer bits (worst-case
 * carry room for 8 concurrent products) and 12 fractional bits — 9 bits of
 * extended precision per the chunk-based accumulation scheme of Sakr et
 * al. (chunk size 64) plus 3 round bits. The register is normalized and
 * rounded to nearest-even after every accumulation step, and its exponent
 * is architecturally visible: the PE compares incoming product exponents
 * against it to derive alignment shifts and out-of-bounds decisions.
 *
 * ExtendedAccumulator models that register bit-faithfully at the
 * value level; ChunkedAccumulator adds the inter-chunk FP32 spill.
 */

#ifndef FPRAKER_NUMERIC_ACCUMULATOR_H
#define FPRAKER_NUMERIC_ACCUMULATOR_H

#include <bit>
#include <cstdint>

#include "common/bitutil.h"
#include "numeric/bfloat16.h"

namespace fpraker {

/** Architectural parameters of the accumulation datapath. */
struct AccumulatorConfig
{
    /**
     * Fractional significand bits kept after each normalize+round step.
     * Default 12 = 9 extended-precision bits + 3 round bits (paper IV-A).
     * Per-layer accumulator-width profiles (Fig. 21) lower this.
     */
    int fracBits = 12;

    /**
     * Integer significand bits including the hidden one. Only consumed by
     * the area/energy model and by a debug check: the functional model
     * normalizes every step and cannot overflow.
     */
    int intBits = 4;

    /** MACs accumulated per chunk before spilling to FP32 (Sakr et al.). */
    int chunkSize = 64;

    bool operator==(const AccumulatorConfig &) const = default;
};

/**
 * The PE-visible accumulator register: sign, exponent, and a significand
 * normalized to fracBits fractional bits after every operation.
 */
class ExtendedAccumulator
{
  public:
    /** Exponent reported while the register holds zero. */
    static constexpr int kMinExp = -(1 << 20);

    explicit ExtendedAccumulator(AccumulatorConfig cfg = {});

    /** Clear back to +0 with the minimum exponent. */
    void reset();

    /** True when the stored value is zero. */
    bool isZero() const { return sig_ == 0; }

    /** True when the stored value is negative. */
    bool isNegative() const { return neg_; }

    /**
     * Exponent of the leading significand bit (the value the hardware's
     * MAX block compares product exponents against). kMinExp when zero.
     */
    int exponent() const { return exp_; }

    /**
     * Raise the exponent register to @p e (no-op when e <= exponent()),
     * quantizing the stored value to the 2^(e - fracBits) grid with RNE.
     * Models the acc_shift alignment the PE performs when a new set of
     * products carries a larger maximum exponent.
     *
     * Defined inline below (with addValue and normalizeAndRound):
     * these three are the per-term arithmetic of every simulated MAC,
     * hot enough that keeping them header-inline is a measured win.
     */
    void alignTo(int e);

    /**
     * Add the exact value (neg ? -1 : +1) * mag * 2^lsb_exp, then
     * normalize and round to nearest even at fracBits fractional bits.
     * This is the single arithmetic path used by both PE models.
     */
    void addValue(bool neg, int lsb_exp, uint64_t mag);

    /**
     * Accumulate the full product of two bfloat16 values (the bit-parallel
     * baseline datapath). NaN/Inf inputs are rejected by assertion: the
     * training simulator operates on finite traces.
     */
    void addProduct(BFloat16 a, BFloat16 b);

    /** Read out as bfloat16 (RNE to 7 mantissa bits, no denormals). */
    BFloat16 readBFloat16() const;

    /** Exact stored value (fracBits <= 52 so a double is exact). */
    double readDouble() const;

    const AccumulatorConfig &config() const { return cfg_; }

  private:
    /**
     * Install |value| = mag * 2^lsb_exp (with @p sticky noting discarded
     * lower bits) as the new register contents: normalize so the leading
     * bit sits at fracBits, round to nearest even. @p U is uint64_t or
     * unsigned __int128; both compute the same register for a value
     * either can hold.
     */
    template <typename U>
    void normalizeAndRound(U mag, int lsb_exp, bool sticky, bool neg);

    AccumulatorConfig cfg_;
    bool neg_;
    int exp_;
    uint64_t sig_; //!< Normalized to [2^fracBits, 2^(fracBits+1)), or 0.
};

/**
 * Chunk-based accumulation wrapper: products accumulate into the
 * extended-precision register; every chunkSize MACs the register value is
 * added into an FP32 running sum (in FP32 arithmetic) and the register is
 * cleared. This bounds swamping error for long dot products while keeping
 * the per-MAC datapath narrow.
 */
class ChunkedAccumulator
{
  public:
    explicit ChunkedAccumulator(AccumulatorConfig cfg = {});

    /** Clear both the chunk register and the FP32 running sum. */
    void reset();

    /** Accumulate one product through the chunk register. */
    void addProduct(BFloat16 a, BFloat16 b);

    /**
     * Account for @p macs MACs deposited directly into chunkRegister()
     * by a PE model; flushes the chunk when the count is reached.
     * (Inline: called once per simulated set.)
     */
    void
    tickMacs(int macs)
    {
        macsInChunk_ += macs;
        if (macsInChunk_ >= cfg_.chunkSize)
            flushChunk();
    }

    /** Force the current chunk into the FP32 running sum. */
    void flushChunk();

    /** The intra-chunk register, exposed for the PE models. */
    ExtendedAccumulator &chunkRegister() { return acc_; }
    const ExtendedAccumulator &chunkRegister() const { return acc_; }

    /** Total = FP32 running sum + current chunk contents. */
    float total() const;

  private:
    AccumulatorConfig cfg_;
    ExtendedAccumulator acc_;
    float running_;
    int macsInChunk_;
};

// ------------------------------------------------------------------
// Inline hot path: every simulated term lands in one of these three.

namespace detail {

/** Most-significant set bit of a 128-bit magnitude (-1 for zero). */
inline int
msb128(unsigned __int128 v)
{
    uint64_t hi = static_cast<uint64_t>(v >> 64);
    if (hi)
        return 64 + msbPos(hi);
    uint64_t lo = static_cast<uint64_t>(v);
    return msbPos(lo);
}

} // namespace detail

template <typename U>
inline void
ExtendedAccumulator::normalizeAndRound(U mag, int lsb_exp, bool sticky,
                                       bool neg)
{
    if (mag == 0) {
        // An exact cancellation (or a pure-sticky remnant, which RNE
        // truncates) leaves the register at zero. Keep the exponent: the
        // hardware register retains it until the next MAX evaluation.
        int keep_exp = exp_ == kMinExp ? kMinExp : exp_;
        reset();
        exp_ = keep_exp;
        return;
    }
    constexpr int kTop = 8 * static_cast<int>(sizeof(U)) - 1;
    int p;
    if constexpr (sizeof(U) > sizeof(uint64_t))
        p = detail::msb128(mag);
    else
        p = kTop - std::countl_zero(mag);

    // Round to nearest even as data, not branches. With the leading
    // bit moved to the top, the register keeps the top fracBits + 1
    // bits; the next bit is the round bit, and every bit below it (or
    // a folded operand, @p sticky) is sticky. A value of at most
    // fracBits + 1 bits has neither, so it lands exactly.
    const int fb = cfg_.fracBits;
    const U top = mag << (kTop - p);
    uint64_t kept = static_cast<uint64_t>(top >> (kTop - fb));
    const uint64_t round = static_cast<uint64_t>(top >> (kTop - 1 - fb)) & 1;
    const uint64_t st = static_cast<uint64_t>(sticky) |
                        static_cast<uint64_t>((top << (fb + 2)) != 0);
    kept += round & (st | kept);
    // Rounding all ones up carries out: kept is then exactly
    // 2^(fracBits + 1) and renormalizes to 2^fracBits one exponent up.
    const int carry = static_cast<int>(kept >> (fb + 1));
    sig_ = kept >> carry;
    exp_ = lsb_exp + p + carry;
    neg_ = neg;
}

inline void
ExtendedAccumulator::alignTo(int e)
{
    if (e <= exp_)
        return;
    if (sig_ == 0) {
        exp_ = e;
        return;
    }
    // Quantize to the 2^(e - fracBits) grid: the stored value is
    // sig_ * 2^(exp_ - fracBits); its new LSB weight is 2^(e - fracBits),
    // so drop (e - exp_) low bits with round-to-nearest-even.
    int drop = e - exp_;
    if (drop > cfg_.fracBits + 1) {
        // Entire value falls below the new window: rounds to zero
        // (the leading bit sits below the half-ULP boundary).
        reset();
        exp_ = e;
        return;
    }
    uint64_t kept = sig_ >> drop;
    bool round = (sig_ >> (drop - 1)) & 1;
    bool sticky = (sig_ & maskBits(drop - 1)) != 0;
    if (round && (sticky || (kept & 1)))
        kept += 1;
    if (kept == 0) {
        reset();
        exp_ = e;
        return;
    }
    // Re-normalize the quantized value (exact: no bits below its LSB).
    int p = msbPos(kept);
    exp_ = e - (cfg_.fracBits - p);
    sig_ = kept << (cfg_.fracBits - p);
}

inline void
ExtendedAccumulator::addValue(bool neg, int lsb_exp, uint64_t mag)
{
    if (mag == 0)
        return;
    const int my = msbPos(mag);
    int ye = lsb_exp + my;
    if (sig_ == 0) {
        normalizeAndRound(mag, lsb_exp, false, neg);
        // Respect a raised exponent register: adding a tiny value to a
        // zero register aligned high quantizes against that alignment.
        return;
    }

    // Fold a negligibly small operand into sticky instead of aligning
    // across an enormous exponent gap.
    if (ye < exp_ - (cfg_.fracBits + 4)) {
        // Accumulator unchanged: its round bit is zero so RNE keeps it.
        return;
    }
    if (exp_ < ye - (cfg_.fracBits + 4)) {
        normalizeAndRound(mag, lsb_exp, true, neg);
        return;
    }

    // Exact signed add over a shared LSB scale.
    int xl = exp_ - cfg_.fracBits;
    int yl = lsb_exp;
    int common = xl < yl ? xl : yl;
    const int xs = xl - common;
    const int ys = yl - common;
    if (cfg_.fracBits + xs <= 61 && my + ys <= 61) {
        // Both aligned operands sit below 2^62, so their signed sum
        // fits an int64 exactly: every PE term tree and baseline
        // product at the paper's register widths takes this path. The
        // signs are applied and read back as masks, without branches.
        const int64_t x = static_cast<int64_t>(sig_ << xs);
        const int64_t y = static_cast<int64_t>(mag << ys);
        const int64_t xm = -static_cast<int64_t>(neg_);
        const int64_t ym = -static_cast<int64_t>(neg);
        const int64_t s = ((x ^ xm) - xm) + ((y ^ ym) - ym);
        const int64_t sm = s >> 63;
        normalizeAndRound(static_cast<uint64_t>((s ^ sm) - sm), common,
                          false, sm != 0);
        return;
    }

    // Wide operands (unrestricted Bit-Pragmatic trees, or fracBits up
    // to 40) fit well within 128 bits: widths <= 64 and alignment <=
    // fracBits + 4 + 64.
    __int128 x = static_cast<__int128>(sig_) << xs;
    if (neg_)
        x = -x;
    __int128 y = static_cast<__int128>(mag) << ys;
    if (neg)
        y = -y;
    __int128 s = x + y;
    bool rneg = s < 0;
    if (rneg)
        s = -s;
    normalizeAndRound(static_cast<unsigned __int128>(s), common, false,
                      rneg);
}

} // namespace fpraker

#endif // FPRAKER_NUMERIC_ACCUMULATOR_H
