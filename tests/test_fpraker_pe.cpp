/**
 * @file
 * Tests for the FPRaker PE and PE-column models, including an exact
 * reproduction of the paper's Fig. 5 walkthrough.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "numeric/reference.h"
#include "pe/baseline_pe.h"
#include "pe/fpraker_pe.h"

namespace fpraker {
namespace {

/** The four operands of the paper's Fig. 5 example. */
struct Fig5Operands
{
    BFloat16 a0 = BFloat16::fromFields(false, 127 + 2, 0b1101000);
    BFloat16 b0 = BFloat16::fromFields(false, 127 + 3, 0b0011000);
    BFloat16 a1 = BFloat16::fromFields(false, 127 + 1, 0b1011000);
    BFloat16 b1 = BFloat16::fromFields(false, 127 + 1, 0b1010000);
};

PeConfig
fig5Config()
{
    PeConfig cfg;
    cfg.lanes = 2;
    cfg.maxDelta = 3;
    cfg.encoding = TermEncoding::RawBits; // Fig. 5 streams raw bits.
    cfg.exponentFloor = 1;                // standalone PE, no sharing
    return cfg;
}

TEST(Fig5Walkthrough, FiveCyclesAtFullPrecision)
{
    Fig5Operands v;
    FPRakerPe pe(fig5Config());

    std::vector<PeCycleTrace> trace;
    pe.setTraceCallback([&](const PeCycleTrace &t) { trace.push_back(t); });

    MacPair pairs[2] = {{v.a0, v.b0}, {v.a1, v.b1}};
    int cycles = pe.processSet(pairs, 2);
    EXPECT_EQ(cycles, 5);

    // A0*B0 + A1*B1 = 7.25*9.5 + 3.375*3.25 = 79.84375, exactly
    // representable in the 12-fraction-bit accumulator.
    EXPECT_DOUBLE_EQ(pe.accumulator().chunkRegister().readDouble(),
                     79.84375);

    // Cycle/fire/stall structure matches the figure exactly. The
    // figure prints eacc=5 through cycle 4, but its own partial sums
    // pass 2^6 after cycle 2 (38+19+6.5+3.25 = 66.75), and the paper
    // text specifies the accumulator is normalized and its exponent
    // updated every accumulation step — so the faithful eacc sequence
    // is 5,5,6,6,6 and the base sequence 0,1,3,5,8 (the figure's
    // 0,1,2,4,8 shifted by the exponent growth). Stall/fire behaviour
    // and the 5-cycle total are unchanged.
    ASSERT_EQ(trace.size(), 5u);
    const int expect_base[5] = {0, 1, 3, 5, 8};
    const int expect_eacc[5] = {5, 5, 6, 6, 6};
    for (int c = 0; c < 5; ++c) {
        EXPECT_EQ(trace[c].base, expect_base[c]) << "cycle " << c + 1;
        EXPECT_EQ(trace[c].accExp, expect_eacc[c]) << "cycle " << c + 1;
    }

    using LA = PeCycleTrace::LaneAction;
    // Cycles 1 & 2: both lanes fire (deltas within 3).
    EXPECT_EQ(trace[0].action[0], LA::Fired);
    EXPECT_EQ(trace[0].action[1], LA::Fired);
    EXPECT_EQ(trace[1].action[0], LA::Fired);
    EXPECT_EQ(trace[1].action[1], LA::Fired);
    // Cycle 3: lane 1's term is 4 positions past the base -> stall.
    EXPECT_EQ(trace[2].action[0], LA::Fired);
    EXPECT_EQ(trace[2].action[1], LA::ShiftStall);
    EXPECT_EQ(trace[2].k[1] - trace[2].base, 4);
    // Cycle 4: both fire again (delta 2).
    EXPECT_EQ(trace[3].action[0], LA::Fired);
    EXPECT_EQ(trace[3].action[1], LA::Fired);
    // Cycle 5: lane 0 exhausted, lane 1 fires its final term at k=8.
    EXPECT_EQ(trace[4].action[0], LA::Idle);
    EXPECT_EQ(trace[4].action[1], LA::Fired);
    EXPECT_EQ(trace[4].k[1], 8);

    // Stats partition: lane-cycles = lanes x set cycles.
    EXPECT_EQ(pe.stats().laneCycles(),
              static_cast<uint64_t>(2) * pe.stats().setCycles);
    EXPECT_EQ(pe.stats().termsProcessed, 8u); // all 4 + 4 raw terms
}

TEST(Fig5Walkthrough, FourCyclesWithSixBitAccumulator)
{
    // "Assume the total precision of the accumulator mantissa is 6b":
    // skipping lane 1's out-of-bounds tail saves the fifth cycle. With
    // per-step normalization the accumulator exponent reaches 6 after
    // cycle 2, so both of lane 1's trailing terms (k=7 and k=8) are
    // beyond the 6-bit window; the figure's lazier exponent tracking
    // skips only the k=8 one. Either way the set finishes in 4 cycles.
    Fig5Operands v;
    PeConfig cfg = fig5Config();
    cfg.obThreshold = 6;
    FPRakerPe pe(cfg);
    MacPair pairs[2] = {{v.a0, v.b0}, {v.a1, v.b1}};
    EXPECT_EQ(pe.processSet(pairs, 2), 4);
    EXPECT_EQ(pe.stats().termsObSkipped, 2u);
}

TEST(Fig5Walkthrough, NoObSkippingStillFiveCycles)
{
    Fig5Operands v;
    PeConfig cfg = fig5Config();
    cfg.obThreshold = 6;
    cfg.skipOutOfBounds = false;
    FPRakerPe pe(cfg);
    MacPair pairs[2] = {{v.a0, v.b0}, {v.a1, v.b1}};
    EXPECT_EQ(pe.processSet(pairs, 2), 5);
    EXPECT_EQ(pe.stats().termsObSkipped, 0u);
}

PeConfig
defaultConfig()
{
    PeConfig cfg;
    return cfg;
}

std::vector<BFloat16>
randomVector(Rng &rng, size_t n, double sparsity, double exp_sigma)
{
    std::vector<BFloat16> v(n);
    for (auto &x : v) {
        if (rng.bernoulli(sparsity)) {
            x = BFloat16();
        } else {
            double mag = std::exp2(rng.gaussian(0.0, exp_sigma));
            if (rng.bernoulli(0.5))
                mag = -mag;
            x = bf16(static_cast<float>(mag * rng.uniform(1.0, 2.0)));
        }
    }
    return v;
}

TEST(FPRakerPe, AllZeroSetCostsTheExponentFloor)
{
    FPRakerPe pe(defaultConfig());
    MacPair pairs[8] = {};
    EXPECT_EQ(pe.processSet(pairs, 8), 2); // shared exponent block floor
    EXPECT_EQ(pe.stats().laneExponent, 16u);
    EXPECT_EQ(pe.stats().termsZeroSkipped, 64u); // 8 empty slots x 8
    EXPECT_TRUE(pe.accumulator().chunkRegister().isZero());
}

TEST(FPRakerPe, ZeroBOperandsRetireThroughObPath)
{
    // A zero B operand carries an all-zero exponent field, so its
    // product exponent sits ~127 binades below any live lane: once the
    // set's emax is anchored by one real product, the zero-B lanes are
    // instantly out-of-bounds and their term streams are dropped.
    PeConfig cfg = defaultConfig();
    FPRakerPe pe(cfg);
    MacPair pairs[8] = {};
    pairs[0] = {bf16(1.5f), bf16(1.0f)}; // anchors emax at 0
    for (int i = 1; i < 8; ++i)
        pairs[i] = {bf16(1.875f), BFloat16()}; // 2 NAF terms each, b = 0
    EXPECT_EQ(pe.processSet(pairs, 8), cfg.exponentFloor);
    EXPECT_EQ(pe.stats().termsObSkipped, 14u); // 7 lanes x 2 terms
    EXPECT_EQ(pe.resultFloat(), 1.5f);
}

TEST(FPRakerPe, ZeroBWithoutObSkippingBurnsCycles)
{
    PeConfig cfg = defaultConfig();
    cfg.skipOutOfBounds = false;
    FPRakerPe pe(cfg);
    MacPair pairs[8] = {};
    for (int i = 0; i < 8; ++i)
        pairs[i] = {bf16(1.875f), BFloat16()};
    // 1.875 = +2^1 - 2^-3: two terms must stream through every lane.
    EXPECT_EQ(pe.processSet(pairs, 8), 2);
    EXPECT_EQ(pe.stats().termsProcessed, 16u);
    EXPECT_EQ(pe.resultFloat(), 0.0f);
}

TEST(FPRakerPe, PowerOfTwoOperandsFinishInOneTermCycle)
{
    PeConfig cfg = defaultConfig();
    cfg.exponentFloor = 1;
    FPRakerPe pe(cfg);
    MacPair pairs[8];
    for (int i = 0; i < 8; ++i)
        pairs[i] = {bf16(2.0f), bf16(1.5f)};
    EXPECT_EQ(pe.processSet(pairs, 8), 1);
    EXPECT_EQ(pe.resultFloat(), 8 * 3.0f);
}

TEST(FPRakerPe, ExactMatchOnNarrowExponentData)
{
    // 3-bit mantissas at a common exponent: one set's products span at
    // most 6 fractional bits against a sum below 2^5, which all fits in
    // the 12-fraction-bit window. Term-serial and bit-parallel
    // accumulation must then agree bit for bit, set by set.
    Rng rng(42);
    PeConfig cfg = defaultConfig();
    for (int set = 0; set < 200; ++set) {
        FPRakerPe fpr(cfg);
        BaselinePe base(cfg);
        MacPair pairs[8];
        for (int l = 0; l < 8; ++l) {
            int man_a = static_cast<int>(rng.uniformInt(8)) << 4;
            int man_b = static_cast<int>(rng.uniformInt(8)) << 4;
            pairs[l] = {
                BFloat16::fromFields(rng.bernoulli(0.5), 127, man_a),
                BFloat16::fromFields(rng.bernoulli(0.5), 127, man_b)};
        }
        fpr.processSet(pairs, 8);
        base.processSet(pairs, 8);
        ASSERT_EQ(fpr.accumulator().chunkRegister().readDouble(),
                  base.accumulator().chunkRegister().readDouble())
            << "diverged at set " << set;
    }
}

/** Randomized equivalence sweep over (sparsity, exponent spread). */
class PeEquivalence
    : public ::testing::TestWithParam<std::tuple<double, double, int>>
{
};

TEST_P(PeEquivalence, MatchesGoldenWithinTolerance)
{
    auto [sparsity, exp_sigma, seed] = GetParam();
    Rng rng(static_cast<uint64_t>(seed) * 100003 + 7);
    const size_t n = 512;
    auto a = randomVector(rng, n, sparsity, exp_sigma);
    auto b = randomVector(rng, n, sparsity, exp_sigma);

    PeConfig cfg = defaultConfig();
    FPRakerPe fpr(cfg);
    BaselinePe base(cfg);
    int fpr_cycles = fpr.dot(a, b);
    base.dot(a, b);

    double ref = dotDouble(a, b);
    double scale = 0.0;
    for (size_t i = 0; i < n; ++i)
        scale += std::fabs(static_cast<double>(a[i].toFloat()) *
                           static_cast<double>(b[i].toFloat()));
    double tol = accumulationTolerance(cfg.acc, 64) * (scale + 1.0);

    EXPECT_NEAR(fpr.resultFloat(), ref, tol);
    EXPECT_NEAR(base.resultFloat(), ref, tol);
    EXPECT_NEAR(fpr.resultFloat(), base.resultFloat(), tol);

    // Term-serial processing can never beat one cycle per set, and the
    // floor guarantees at least exponentFloor cycles per set.
    EXPECT_GE(fpr_cycles,
              static_cast<int>(n / 8) * cfg.exponentFloor);

    // Stats partition invariant.
    EXPECT_EQ(fpr.stats().laneCycles(),
              static_cast<uint64_t>(cfg.lanes) * fpr.stats().setCycles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PeEquivalence,
    ::testing::Combine(::testing::Values(0.0, 0.35, 0.8),
                       ::testing::Values(0.5, 2.0, 6.0),
                       ::testing::Values(1, 2)));

TEST(FPRakerPe, ObSkippingNeverSlowsDown)
{
    Rng rng(1234);
    PeConfig on = defaultConfig();
    PeConfig off = defaultConfig();
    off.skipOutOfBounds = false;
    for (int trial = 0; trial < 100; ++trial) {
        MacPair pairs[8];
        for (int l = 0; l < 8; ++l) {
            auto v = randomVector(rng, 2, 0.2, 4.0);
            pairs[l] = {v[0], v[1]};
        }
        FPRakerPe pe_on(on);
        FPRakerPe pe_off(off);
        int c_on = pe_on.processSet(pairs, 8);
        int c_off = pe_off.processSet(pairs, 8);
        EXPECT_LE(c_on, c_off) << "trial " << trial;
    }
}

TEST(FPRakerPe, WiderShiftWindowNeverSlowsDown)
{
    Rng rng(99);
    PeConfig narrow = defaultConfig();
    PeConfig wide = defaultConfig();
    wide.maxDelta = 12;
    for (int trial = 0; trial < 100; ++trial) {
        MacPair pairs[8];
        for (int l = 0; l < 8; ++l) {
            auto v = randomVector(rng, 2, 0.1, 3.0);
            pairs[l] = {v[0], v[1]};
        }
        FPRakerPe pe_n(narrow);
        FPRakerPe pe_w(wide);
        EXPECT_LE(pe_w.processSet(pairs, 8), pe_n.processSet(pairs, 8));
    }
}

TEST(FPRakerPe, CanonicalEncodingBeatsRawBitsOnAggregate)
{
    Rng rng(7);
    PeConfig naf = defaultConfig();
    PeConfig raw = defaultConfig();
    raw.encoding = TermEncoding::RawBits;
    FPRakerPe pe_naf(naf);
    FPRakerPe pe_raw(raw);
    const size_t n = 2048;
    auto a = randomVector(rng, n, 0.0, 1.5);
    auto b = randomVector(rng, n, 0.0, 1.5);
    int c_naf = pe_naf.dot(a, b);
    int c_raw = pe_raw.dot(a, b);
    EXPECT_LT(c_naf, c_raw);
}

TEST(FPRakerColumn, TwoPesProduceCorrectIndependentResults)
{
    Rng rng(55);
    PeConfig cfg = defaultConfig();
    FPRakerColumn col(cfg, 2);
    const int sets = 8; // one chunk
    std::vector<BFloat16> a_all, b0_all, b1_all;
    for (int s = 0; s < sets; ++s) {
        auto a = randomVector(rng, 8, 0.2, 2.0);
        auto b0 = randomVector(rng, 8, 0.2, 2.0);
        auto b1 = randomVector(rng, 8, 0.2, 2.0);
        std::vector<BFloat16> b(16);
        std::copy(b0.begin(), b0.end(), b.begin());
        std::copy(b1.begin(), b1.end(), b.begin() + 8);
        col.runSet(a.data(), b.data(), 8);
        a_all.insert(a_all.end(), a.begin(), a.end());
        b0_all.insert(b0_all.end(), b0.begin(), b0.end());
        b1_all.insert(b1_all.end(), b1.begin(), b1.end());
    }
    double ref0 = dotDouble(a_all, b0_all);
    double ref1 = dotDouble(a_all, b1_all);
    double tol0 = accumulationTolerance(cfg.acc, 64) *
                  (std::fabs(ref0) + 64.0);
    double tol1 = accumulationTolerance(cfg.acc, 64) *
                  (std::fabs(ref1) + 64.0);
    EXPECT_NEAR(col.accumulator(0).total(), ref0, tol0);
    EXPECT_NEAR(col.accumulator(1).total(), ref1, tol1);
}

TEST(FPRakerColumn, LockstepIsNeverFasterThanStandalone)
{
    Rng rng(77);
    PeConfig cfg = defaultConfig();
    for (int trial = 0; trial < 50; ++trial) {
        auto a = randomVector(rng, 8, 0.2, 3.0);
        auto b0 = randomVector(rng, 8, 0.2, 3.0);
        auto b1 = randomVector(rng, 8, 0.2, 3.0);
        std::vector<BFloat16> b(16);
        std::copy(b0.begin(), b0.end(), b.begin());
        std::copy(b1.begin(), b1.end(), b.begin() + 8);

        FPRakerColumn col(cfg, 2);
        int col_cycles = col.runSet(a.data(), b.data(), 8);

        FPRakerColumn solo0(cfg, 1);
        FPRakerColumn solo1(cfg, 1);
        int c0 = solo0.runSet(a.data(), b0.data(), 8);
        int c1 = solo1.runSet(a.data(), b1.data(), 8);
        EXPECT_GE(col_cycles, std::max(c0, c1)) << "trial " << trial;
    }
}

TEST(FPRakerColumn, ObConsensusKeepsStreamAliveForHungryPe)
{
    // PE 0 holds a huge accumulated value, PE 1 a tiny one. A set of
    // small products is out-of-bounds for PE 0 only; the stream must
    // keep flowing for PE 1 and both results must stay correct.
    PeConfig cfg = defaultConfig();
    cfg.exponentFloor = 1;
    FPRakerColumn col(cfg, 2);

    // Prime PE 0 with a large value through a set whose B row for PE 1
    // is zero.
    std::vector<BFloat16> a0(8), b0(16);
    a0[0] = bf16(0x1.0p10f);
    b0[0] = bf16(0x1.0p10f); // PE 0 row
    col.runSet(a0.data(), b0.data(), 8);
    EXPECT_NEAR(col.accumulator(0).total(), 0x1.0p20f, 1.0f);
    EXPECT_EQ(col.accumulator(1).total(), 0.0f);

    // Now a set of small values: far below 2^20 (OB for PE 0), fine for
    // PE 1.
    std::vector<BFloat16> a1(8), b1(16);
    for (int l = 0; l < 8; ++l) {
        a1[l] = bf16(1.5f);
        b1[l] = bf16(1.0f);      // PE 0 row: products ~1.5 vs acc 2^20
        b1[8 + l] = bf16(2.0f);  // PE 1 row
    }
    uint64_t ob_before = col.stats(0).termsObSkipped;
    col.runSet(a1.data(), b1.data(), 8);
    EXPECT_GT(col.stats(0).termsObSkipped, ob_before);
    // PE 0 value unchanged (contributions below precision).
    EXPECT_NEAR(col.accumulator(0).total(), 0x1.0p20f, 1.0f);
    // PE 1 accumulated 8 * 1.5 * 2.0 = 24.
    EXPECT_NEAR(col.accumulator(1).total(), 24.0f, 0.1f);
}

TEST(FPRakerPe, DotHandlesShortTails)
{
    FPRakerPe pe(defaultConfig());
    std::vector<BFloat16> a = {bf16(1.0f), bf16(2.0f), bf16(3.0f)};
    std::vector<BFloat16> b = {bf16(4.0f), bf16(5.0f), bf16(6.0f)};
    pe.dot(a, b);
    EXPECT_NEAR(pe.resultFloat(), 32.0f, 0.1f);
}

TEST(FPRakerPe, StatsAccumulateAcrossSets)
{
    Rng rng(3);
    FPRakerPe pe(defaultConfig());
    auto a = randomVector(rng, 64, 0.3, 1.0);
    auto b = randomVector(rng, 64, 0.3, 1.0);
    pe.dot(a, b);
    EXPECT_EQ(pe.stats().sets, 8u);
    EXPECT_EQ(pe.stats().macs, 64u);
    EXPECT_GT(pe.stats().termsProcessed, 0u);
    pe.clearStats();
    EXPECT_EQ(pe.stats().sets, 0u);
}

} // namespace
} // namespace fpraker
