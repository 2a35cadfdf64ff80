/**
 * @file
 * Unit and property tests for the extended-precision accumulator.
 */

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitutil.h"
#include "common/rng.h"
#include "numeric/accumulator.h"
#include "numeric/reference.h"

namespace fpraker {
namespace {

TEST(ExtendedAccumulator, StartsAtZero)
{
    ExtendedAccumulator acc;
    EXPECT_TRUE(acc.isZero());
    EXPECT_EQ(acc.exponent(), ExtendedAccumulator::kMinExp);
    EXPECT_EQ(acc.readDouble(), 0.0);
    EXPECT_TRUE(acc.readBFloat16().isZero());
}

TEST(ExtendedAccumulator, SingleProductIsExact)
{
    ExtendedAccumulator acc;
    acc.addProduct(bf16(1.5f), bf16(2.5f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), 3.75);
    EXPECT_EQ(acc.exponent(), 1); // 3.75 = 2^1 * 1.875
    EXPECT_FALSE(acc.isNegative());
}

TEST(ExtendedAccumulator, SignedProducts)
{
    ExtendedAccumulator acc;
    acc.addProduct(bf16(-1.5f), bf16(2.0f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), -3.0);
    acc.addProduct(bf16(-1.0f), bf16(-1.0f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), -2.0);
    acc.addProduct(bf16(2.0f), bf16(1.0f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), 0.0);
    EXPECT_TRUE(acc.isZero());
}

TEST(ExtendedAccumulator, ZeroOperandsAreIgnored)
{
    ExtendedAccumulator acc;
    acc.addProduct(bf16(0.0f), bf16(5.0f));
    acc.addProduct(bf16(5.0f), bf16(0.0f));
    EXPECT_TRUE(acc.isZero());
}

TEST(ExtendedAccumulator, ExactCancellation)
{
    ExtendedAccumulator acc;
    acc.addProduct(bf16(1.25f), bf16(4.0f));
    acc.addProduct(bf16(-1.25f), bf16(4.0f));
    EXPECT_TRUE(acc.isZero());
    EXPECT_EQ(acc.readDouble(), 0.0);
}

TEST(ExtendedAccumulator, NearCancellationKeepsSmallResidue)
{
    ExtendedAccumulator acc;
    acc.addProduct(bf16(1.0f + 0x1.0p-7f), bf16(1.0f)); // 1 + 2^-7
    acc.addProduct(bf16(-1.0f), bf16(1.0f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), 0x1.0p-7);
    EXPECT_EQ(acc.exponent(), -7);
}

TEST(ExtendedAccumulator, TinyAddendFoldsAway)
{
    // 2^-80 against 2^40: far below the 12 fractional bits.
    ExtendedAccumulator acc;
    acc.addProduct(bf16(0x1.0p20f), bf16(0x1.0p20f));
    double before = acc.readDouble();
    acc.addProduct(bf16(0x1.0p-40f), bf16(0x1.0p-40f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), before);
}

TEST(ExtendedAccumulator, SmallAccumulatorSwampedByHugeAddend)
{
    ExtendedAccumulator acc;
    acc.addProduct(bf16(0x1.0p-40f), bf16(0x1.0p-40f));
    acc.addProduct(bf16(0x1.0p20f), bf16(0x1.0p20f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), 0x1.0p40);
}

TEST(ExtendedAccumulator, RoundsToFracBitsEachStep)
{
    // fracBits = 12: adding 2^-13 to 1.0 is a tie at the round bit with
    // even significand -> stays 1.0. Adding 2^-12 is representable.
    AccumulatorConfig cfg;
    cfg.fracBits = 12;
    ExtendedAccumulator acc(cfg);
    acc.addProduct(bf16(1.0f), bf16(1.0f));
    acc.addProduct(bf16(0x1.0p-13f), bf16(1.0f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), 1.0);
    acc.addProduct(bf16(0x1.0p-12f), bf16(1.0f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), 1.0 + 0x1.0p-12);
}

TEST(ExtendedAccumulator, RneTieBreaksToEven)
{
    AccumulatorConfig cfg;
    cfg.fracBits = 12;
    ExtendedAccumulator acc(cfg);
    // Significand ...0001 + half ulp: tie -> round down to even (...000).
    acc.addProduct(bf16(1.0f + 0x1.0p-7f), bf16(1.0f)); // 1 + 2^-7
    acc.addProduct(bf16(0x1.0p-12f), bf16(1.0f));       // lsb = 1 now
    acc.addProduct(bf16(0x1.0p-13f), bf16(1.0f));       // tie
    // 1 + 2^-7 + 2^-12 + 2^-13 -> tie rounds to even: 1 + 2^-7 + 2^-11.
    EXPECT_DOUBLE_EQ(acc.readDouble(), 1.0 + 0x1.0p-7 + 0x1.0p-11);
}

TEST(ExtendedAccumulator, AlignToQuantizes)
{
    AccumulatorConfig cfg;
    cfg.fracBits = 12;
    ExtendedAccumulator acc(cfg);
    acc.addProduct(bf16(1.0f), bf16(1.0f)); // 1.0, exponent 0
    acc.addProduct(bf16(0x1.0p-10f), bf16(1.0f));
    EXPECT_DOUBLE_EQ(acc.readDouble(), 1.0 + 0x1.0p-10);
    // Raising the window to exponent 5 keeps bits down to
    // 2^(5-12) = 2^-7, so the 2^-10 bit is truncated away and the value
    // renormalizes back to exactly 1.0.
    acc.alignTo(5);
    EXPECT_EQ(acc.exponent(), 0);
    EXPECT_DOUBLE_EQ(acc.readDouble(), 1.0);
    // Raising the window far above drops the whole value: with the lsb
    // at 2^(15-12) = 8, the remaining 1.0 rounds to zero under RNE.
    acc.alignTo(15);
    EXPECT_TRUE(acc.isZero());
    EXPECT_EQ(acc.exponent(), 15);
}

TEST(ExtendedAccumulator, AlignToIsNoOpBelowCurrentExponent)
{
    ExtendedAccumulator acc;
    acc.addProduct(bf16(4.0f), bf16(2.0f)); // 8 = 2^3
    acc.alignTo(1);
    EXPECT_EQ(acc.exponent(), 3);
    EXPECT_DOUBLE_EQ(acc.readDouble(), 8.0);
}

TEST(ExtendedAccumulator, AlignToOnZeroSetsExponentRegister)
{
    ExtendedAccumulator acc;
    acc.alignTo(17);
    EXPECT_TRUE(acc.isZero());
    EXPECT_EQ(acc.exponent(), 17);
}

TEST(ExtendedAccumulator, ReadBFloat16Rounds)
{
    ExtendedAccumulator acc;
    // 1 + 2^-9 is representable in the accumulator but not bfloat16;
    // RNE on readout drops it (round bit 0 at the 2^-8 position? no:
    // round bit is 2^-8, value bit is at 2^-9 -> sticky only).
    acc.addProduct(bf16(1.0f), bf16(1.0f));
    acc.addProduct(bf16(0x1.0p-9f), bf16(1.0f));
    EXPECT_EQ(acc.readBFloat16().toFloat(), 1.0f);
    // 1 + 2^-8 + 2^-9: above the halfway point -> rounds up to 1 + 2^-7.
    acc.addProduct(bf16(0x1.0p-8f), bf16(1.0f));
    EXPECT_EQ(acc.readBFloat16().toFloat(), 1.0f + 0x1.0p-7f);
}

TEST(ExtendedAccumulator, ReadBFloat16OverflowsToInf)
{
    ExtendedAccumulator acc;
    for (int i = 0; i < 3; ++i)
        acc.addProduct(bf16(0x1.0p63f), bf16(0x1.0p64f));
    EXPECT_TRUE(std::isinf(acc.readBFloat16().toFloat()) ||
                acc.readBFloat16().isInf());
}

TEST(ExtendedAccumulator, ReadBFloat16UnderflowFlushes)
{
    ExtendedAccumulator acc;
    acc.addProduct(bf16(0x1.0p-70f), bf16(0x1.0p-70f)); // 2^-140
    EXPECT_NE(acc.readDouble(), 0.0);
    EXPECT_TRUE(acc.readBFloat16().isZero());
}

TEST(ExtendedAccumulator, WorstCaseCarryFromEightProducts)
{
    // Eight maximal same-sign products must accumulate correctly (the
    // hardware's 3 extra integer bits; the model normalizes each step).
    ExtendedAccumulator acc;
    BFloat16 m = BFloat16::fromFields(false, 127 + 0, 0x7f); // ~1.992
    double ref = 0.0;
    for (int i = 0; i < 8; ++i) {
        acc.addProduct(m, m);
        ref += static_cast<double>(m.toFloat()) *
               static_cast<double>(m.toFloat());
    }
    EXPECT_LT(relError(acc.readDouble(), ref),
              accumulationTolerance(acc.config(), 8));
}

/** Random accumulation vs FP64, parameterized over dot length. */
class AccumulatorRandomSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(AccumulatorRandomSweep, TracksFp64WithinTolerance)
{
    auto [length, seed] = GetParam();
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
    AccumulatorConfig cfg;
    cfg.chunkSize = 64;
    ChunkedAccumulator acc(cfg);
    double ref = 0.0;
    for (int i = 0; i < length; ++i) {
        BFloat16 a = bf16(static_cast<float>(rng.gaussian(0.0, 1.0)));
        BFloat16 b = bf16(static_cast<float>(rng.gaussian(0.0, 1.0)));
        acc.addProduct(a, b);
        ref += static_cast<double>(a.toFloat()) *
               static_cast<double>(b.toFloat());
    }
    // Chunked accumulation bounds error per chunk; compare against a
    // magnitude floor of the running sum of |products| to avoid
    // relative-error blowup on cancellation-heavy draws.
    double tol = accumulationTolerance(cfg, 64) +
                 1e-3 * std::sqrt(static_cast<double>(length));
    EXPECT_NEAR(acc.total(), ref,
                tol * std::max(1.0, std::fabs(ref)) + 0.25)
        << "length " << length << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AccumulatorRandomSweep,
    ::testing::Combine(::testing::Values(1, 8, 64, 256, 1024),
                       ::testing::Values(1, 2, 3)));

/**
 * The register arithmetic as it was before addValue gained its 64-bit
 * path: every add aligns and sums in __int128. The tests below hold
 * the production register bit-equal to it, which the FP64-tolerance
 * tests above cannot: they would miss a one-ulp rounding slip.
 */
struct WideRegister
{
    int fracBits;
    bool neg = false;
    int exp = ExtendedAccumulator::kMinExp;
    uint64_t sig = 0;

    explicit WideRegister(int frac_bits) : fracBits(frac_bits) {}

    void
    reset()
    {
        neg = false;
        exp = ExtendedAccumulator::kMinExp;
        sig = 0;
    }

    static int
    msb128(unsigned __int128 v)
    {
        const uint64_t hi = static_cast<uint64_t>(v >> 64);
        return hi ? 64 + msbPos(hi) : msbPos(static_cast<uint64_t>(v));
    }

    void
    normalizeAndRound(unsigned __int128 mag, int lsb_exp, bool sticky,
                      bool rneg)
    {
        if (mag == 0) {
            const int keep_exp = exp;
            reset();
            exp = keep_exp;
            return;
        }
        const int p = msb128(mag);
        int shift = p - fracBits;
        if (shift > 0) {
            uint64_t kept = static_cast<uint64_t>(mag >> shift);
            const bool round = (mag >> (shift - 1)) & 1;
            bool st = sticky;
            if (shift > 1)
                st = st || (mag & ((static_cast<unsigned __int128>(1)
                                    << (shift - 1)) - 1)) != 0;
            if (round && (st || (kept & 1))) {
                kept += 1;
                if (kept >> (fracBits + 1)) {
                    kept >>= 1;
                    ++shift;
                }
            }
            sig = kept;
        } else {
            sig = static_cast<uint64_t>(mag) << (-shift);
        }
        exp = lsb_exp + shift + fracBits;
        neg = rneg;
    }

    void
    alignTo(int e)
    {
        if (e <= exp)
            return;
        if (sig == 0) {
            exp = e;
            return;
        }
        const int drop = e - exp;
        if (drop > fracBits + 1) {
            reset();
            exp = e;
            return;
        }
        uint64_t kept = sig >> drop;
        const bool round = (sig >> (drop - 1)) & 1;
        const bool sticky = (sig & maskBits(drop - 1)) != 0;
        if (round && (sticky || (kept & 1)))
            kept += 1;
        if (kept == 0) {
            reset();
            exp = e;
            return;
        }
        const int p = msbPos(kept);
        exp = e - (fracBits - p);
        sig = kept << (fracBits - p);
    }

    void
    addValue(bool yneg, int lsb_exp, uint64_t mag)
    {
        if (mag == 0)
            return;
        const int ye = lsb_exp + msbPos(mag);
        if (sig == 0) {
            normalizeAndRound(mag, lsb_exp, false, yneg);
            return;
        }
        if (ye < exp - (fracBits + 4))
            return;
        if (exp < ye - (fracBits + 4)) {
            normalizeAndRound(mag, lsb_exp, true, yneg);
            return;
        }
        const int xl = exp - fracBits;
        const int yl = lsb_exp;
        const int common = xl < yl ? xl : yl;
        __int128 x = static_cast<__int128>(sig) << (xl - common);
        if (neg)
            x = -x;
        __int128 y = static_cast<__int128>(mag) << (yl - common);
        if (yneg)
            y = -y;
        __int128 s = x + y;
        const bool rneg = s < 0;
        if (rneg)
            s = -s;
        normalizeAndRound(static_cast<unsigned __int128>(s), common, false,
                          rneg);
    }

    double
    value() const
    {
        if (sig == 0)
            return 0.0;
        const double v = std::ldexp(static_cast<double>(sig), exp - fracBits);
        return neg ? -v : v;
    }
};

/**
 * One fuzzed addend for @p ref's current state: a magnitude of 1 to 64
 * bits, placed relative to the register's exponent so the sum lands
 * anywhere from far below the register to far above it — including
 * both fracBits + 4 guard edges — or an exact cancellation of the
 * register, a round-to-nearest-even tie, or zero.
 */
void
fuzzedAddend(Rng &rng, const WideRegister &ref, bool &neg, int &lsb_exp,
             uint64_t &mag)
{
    const int fb = ref.fracBits;
    neg = rng.bernoulli(0.5);
    const int top = static_cast<int>(rng.uniformInt(0, 63));
    mag = (rng.next() | (uint64_t{1} << 63)) >> (63 - top);
    const int here = ref.sig ? ref.exp : 0;
    const int pick = static_cast<int>(rng.uniformInt(0, 10));
    if (pick == 10) {
        // A zero addend at any scale, far above the register included:
        // the register must not move.
        mag = 0;
        lsb_exp = here - 2 * fb - 8 +
                  static_cast<int>(rng.uniformInt(0, 4 * fb + 16));
        return;
    }
    if (ref.sig && pick == 0) {
        // Exact cancellation, on any scale that still fits.
        const int up = static_cast<int>(rng.uniformInt(0, 62 - fb));
        neg = !ref.neg;
        mag = ref.sig << up;
        lsb_exp = ref.exp - fb - up;
        return;
    }
    if (ref.sig && pick == 1) {
        // An odd number of half-ulps of the register: a tie when the
        // sum keeps its exponent, so RNE decides.
        const int below = static_cast<int>(rng.uniformInt(1, 3));
        mag = (rng.next() >> static_cast<int>(rng.uniformInt(40, 63))) |
              uint64_t{1};
        mag <<= below - 1;
        lsb_exp = ref.exp - fb - below;
        return;
    }
    int gap; // leading-bit exponent of the addend minus the register's
    if (pick <= 5) {
        // At the guard edges: one side of each is folded away.
        const int edges[] = {-(fb + 5), -(fb + 4), -(fb + 3),
                             fb + 3,    fb + 4,    fb + 5};
        gap = edges[rng.uniformInt(6)];
    } else {
        gap = static_cast<int>(rng.uniformInt(-(fb + 8), fb + 8));
    }
    lsb_exp = here + gap - msbPos(mag);
}

TEST(ExtendedAccumulator, AddValueMatchesWideReferenceBitForBit)
{
    Rng rng(64128);
    for (int fb = 1; fb <= 40; ++fb) {
        AccumulatorConfig cfg;
        cfg.fracBits = fb;
        for (int seq = 0; seq < 40; ++seq) {
            ExtendedAccumulator acc(cfg);
            WideRegister ref(fb);
            if (seq % 2) {
                // A raised exponent register: zero, aligned high.
                const int e = static_cast<int>(rng.uniformInt(-60, 60));
                acc.alignTo(e);
                ref.alignTo(e);
            }
            for (int step = 0; step < 120; ++step) {
                if (rng.bernoulli(0.05)) {
                    const int e = (ref.sig ? ref.exp : 0) +
                                  static_cast<int>(rng.uniformInt(0, 3));
                    acc.alignTo(e);
                    ref.alignTo(e);
                } else {
                    bool neg;
                    int lsb_exp;
                    uint64_t mag;
                    fuzzedAddend(rng, ref, neg, lsb_exp, mag);
                    acc.addValue(neg, lsb_exp, mag);
                    ref.addValue(neg, lsb_exp, mag);
                }
                ASSERT_EQ(acc.isNegative(), ref.neg)
                    << "fracBits " << fb << " seq " << seq << " step "
                    << step;
                ASSERT_EQ(acc.exponent(), ref.exp)
                    << "fracBits " << fb << " seq " << seq << " step "
                    << step;
                ASSERT_EQ(acc.readDouble(), ref.value())
                    << "fracBits " << fb << " seq " << seq << " step "
                    << step;
                if (std::abs(ref.exp) > 400) {
                    // Keep the register inside a double's range.
                    acc.reset();
                    ref.reset();
                }
            }
        }
    }
}

TEST(ChunkedAccumulator, FlushesEveryChunk)
{
    AccumulatorConfig cfg;
    cfg.chunkSize = 8;
    ChunkedAccumulator acc(cfg);
    for (int i = 0; i < 8; ++i)
        acc.addProduct(bf16(1.0f), bf16(1.0f));
    // After exactly one chunk the register is empty and the FP32 total
    // carries the sum.
    EXPECT_TRUE(acc.chunkRegister().isZero());
    EXPECT_EQ(acc.total(), 8.0f);
}

TEST(ChunkedAccumulator, BeatsNaiveBf16OnLongSums)
{
    // Accumulating many small values into a large one: naive bf16
    // round-after-every-MAC loses them all, chunked accumulation keeps
    // most of the mass.
    AccumulatorConfig cfg;
    ChunkedAccumulator chunked(cfg);
    BFloat16 big = bf16(256.0f);
    BFloat16 small = bf16(0.0625f);
    chunked.addProduct(big, bf16(1.0f));
    BFloat16 naive = big;
    const int n = 512;
    for (int i = 0; i < n; ++i) {
        chunked.addProduct(small, bf16(1.0f));
        naive = BFloat16::fromFloat(naive.toFloat() + small.toFloat());
    }
    double ref = 256.0 + n * 0.0625;
    EXPECT_EQ(naive.toFloat(), 256.0f); // swamped entirely
    EXPECT_LT(relError(chunked.total(), ref), 0.01);
}

TEST(ChunkedAccumulator, ResetClearsEverything)
{
    ChunkedAccumulator acc;
    acc.addProduct(bf16(3.0f), bf16(3.0f));
    acc.flushChunk();
    acc.addProduct(bf16(1.0f), bf16(1.0f));
    acc.reset();
    EXPECT_EQ(acc.total(), 0.0f);
    EXPECT_TRUE(acc.chunkRegister().isZero());
}

TEST(Reference, DotHelpersAgreeOnSimpleData)
{
    std::vector<BFloat16> a = {bf16(1.0f), bf16(2.0f), bf16(-3.0f)};
    std::vector<BFloat16> b = {bf16(4.0f), bf16(0.5f), bf16(1.0f)};
    EXPECT_DOUBLE_EQ(dotDouble(a, b), 2.0);
    EXPECT_EQ(dotFloat(a, b), 2.0f);
    AccumulatorConfig cfg;
    EXPECT_NEAR(dotChunked(a, b, cfg), 2.0f, 1e-3f);
}

} // namespace
} // namespace fpraker
