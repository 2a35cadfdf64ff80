/**
 * @file
 * Differential fuzzing of the FPRaker PE against the bit-parallel
 * baseline across the configuration space: random operand streams
 * under random (window, threshold, encoding, accumulator) settings
 * must stay within the analytically-bounded divergence of the two
 * datapaths, and all timing/accounting invariants must hold. The
 * value-only MAC behind training emulation must match the cycle-level
 * PE bit for bit.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "numeric/reference.h"
#include "pe/alt_pes.h"
#include "pe/baseline_pe.h"
#include "pe/fpraker_pe.h"
#include "sim/reference_column.h"
#include "tile/tile.h"
#include "train/mac_modes.h"

namespace fpraker {
namespace {

struct FuzzCase
{
    int maxDelta;
    int obThreshold; //!< -1 = accumulator width
    TermEncoding encoding;
    int fracBits;
    int chunkSize;
    double sparsity;
    double expSigma;
};

class DifferentialFuzz : public ::testing::TestWithParam<int>
{
};

FuzzCase
randomCase(Rng &rng)
{
    FuzzCase c;
    const int deltas[] = {0, 1, 2, 3, 5, 8, 1 << 16};
    c.maxDelta = deltas[rng.uniformInt(7)];
    c.obThreshold = rng.bernoulli(0.5)
                        ? -1
                        : static_cast<int>(rng.uniformInt(4, 12));
    c.encoding = rng.bernoulli(0.5) ? TermEncoding::Canonical
                                    : TermEncoding::RawBits;
    c.fracBits = static_cast<int>(rng.uniformInt(8, 16));
    const int chunks[] = {8, 16, 64, 256};
    c.chunkSize = chunks[rng.uniformInt(4)];
    c.sparsity = rng.uniform(0.0, 0.9);
    c.expSigma = rng.uniform(0.2, 5.0);
    return c;
}

std::vector<BFloat16>
randomStream(Rng &rng, size_t n, const FuzzCase &c)
{
    std::vector<BFloat16> v(n);
    for (auto &x : v) {
        if (rng.bernoulli(c.sparsity)) {
            x = BFloat16();
            continue;
        }
        double mag = std::exp2(rng.gaussian(0.0, c.expSigma)) *
                     rng.uniform(1.0, 2.0);
        x = bf16(static_cast<float>(rng.bernoulli(0.5) ? -mag : mag));
    }
    return v;
}

TEST_P(DifferentialFuzz, FPRakerTracksBaselineUnderAllConfigs)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7907 + 17);
    for (int trial = 0; trial < 8; ++trial) {
        FuzzCase c = randomCase(rng);
        PeConfig cfg;
        cfg.maxDelta = c.maxDelta;
        cfg.obThreshold = c.obThreshold;
        cfg.encoding = c.encoding;
        cfg.acc.fracBits = c.fracBits;
        cfg.acc.chunkSize = c.chunkSize;

        const size_t n = 128;
        auto a = randomStream(rng, n, c);
        auto b = randomStream(rng, n, c);

        FPRakerPe fpr(cfg);
        BaselinePe base(cfg);
        int fpr_cycles = fpr.dot(a, b);
        int base_cycles = base.dot(a, b);

        // Timing invariants.
        ASSERT_GE(fpr_cycles,
                  base_cycles * (cfg.exponentFloor - 1))
            << "floor violated";
        ASSERT_EQ(fpr.stats().laneCycles(),
                  8ull * fpr.stats().setCycles);
        ASSERT_EQ(fpr.stats().macs, n);

        // Numeric divergence bound: both machines round at fracBits
        // each step; OB skipping only drops sub-threshold terms. Use
        // the magnitude scale of the stream.
        double scale = 1.0;
        for (size_t i = 0; i < n; ++i)
            scale += std::fabs(static_cast<double>(a[i].toFloat()) *
                               static_cast<double>(b[i].toFloat()));
        int effective_bits =
            c.obThreshold < 0 ? c.fracBits
                              : std::min(c.fracBits, c.obThreshold);
        double tol =
            std::ldexp(1.0, -effective_bits) * (16.0 + n / 4.0) * scale;
        ASSERT_NEAR(fpr.resultFloat(), base.resultFloat(), tol)
            << "trial " << trial << " delta=" << c.maxDelta
            << " thr=" << c.obThreshold << " frac=" << c.fracBits
            << " chunk=" << c.chunkSize;

        // And both track FP64 within the same class of bound.
        double ref = dotDouble(a, b);
        ASSERT_NEAR(base.resultFloat(), ref,
                    std::ldexp(1.0, -c.fracBits) * (16.0 + n / 4.0) *
                        scale + 1e-3);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range(0, 12));

TEST(DifferentialFuzz, ColumnsOfAnySizeStayConsistent)
{
    Rng rng(555);
    for (int rows : {1, 2, 3, 5, 8, 13}) {
        PeConfig cfg;
        FPRakerColumn col(cfg, rows);
        for (int set = 0; set < 12; ++set) {
            std::vector<BFloat16> a(8), b(static_cast<size_t>(rows) * 8);
            for (auto &x : a)
                x = rng.bernoulli(0.3)
                        ? BFloat16()
                        : bf16(static_cast<float>(rng.gaussian(0, 2)));
            for (auto &x : b)
                x = bf16(static_cast<float>(rng.gaussian(0, 2)));
            int cycles = col.runSet(a.data(), b.data(), 8);
            ASSERT_GE(cycles, cfg.exponentFloor);
            ASSERT_LE(cycles, 64) << "runaway set at rows=" << rows;
        }
        PeStats agg = col.aggregateStats();
        ASSERT_EQ(agg.laneCycles(), agg.setCycles * 8ull);
    }
}

void
expectStatsEqual(const PeStats &a, const PeStats &b, const char *what)
{
    EXPECT_EQ(a.laneUseful, b.laneUseful) << what;
    EXPECT_EQ(a.laneNoTerm, b.laneNoTerm) << what;
    EXPECT_EQ(a.laneShiftRange, b.laneShiftRange) << what;
    EXPECT_EQ(a.laneExponent, b.laneExponent) << what;
    EXPECT_EQ(a.laneInterPe, b.laneInterPe) << what;
    EXPECT_EQ(a.setCycles, b.setCycles) << what;
    EXPECT_EQ(a.sets, b.sets) << what;
    EXPECT_EQ(a.macs, b.macs) << what;
    EXPECT_EQ(a.termsProcessed, b.termsProcessed) << what;
    EXPECT_EQ(a.termsZeroSkipped, b.termsZeroSkipped) << what;
    EXPECT_EQ(a.termsObSkipped, b.termsObSkipped) << what;
}

/**
 * Single-pending-lane columns: sets where exactly one A lane is
 * nonzero (the lone lane carries a wild exponent, so it keeps draining
 * terms long after every other lane went idle on cycle one). This is
 * the degenerate busy-loop shape of the fused tile sweep, so it must
 * stay bit-identical to the seed reference in cycles, accumulator
 * bits, and every stat counter.
 */
TEST(DifferentialFuzz, SinglePendingLaneColumnsMatchReference)
{
    Rng rng(90210);
    for (int rows : {1, 3, 8}) {
        PeConfig cfg;
        cfg.obThreshold = 6; // retire aggressively around the loner
        FPRakerColumn opt(cfg, rows);
        ReferenceColumn ref(cfg, rows);
        for (int set = 0; set < 24; ++set) {
            std::vector<BFloat16> a(8);
            const size_t live = rng.uniformInt(8);
            double mag = std::exp2(rng.gaussian(0.0, 8.0));
            a[live] = bf16(static_cast<float>(
                rng.bernoulli(0.5) ? -mag : mag));
            auto b = randomStream(
                rng, static_cast<size_t>(rows) * 8,
                FuzzCase{0, -1, TermEncoding::Canonical, 12, 64, 0.2,
                         4.0});
            int c_opt = opt.runSet(a.data(), b.data(), 8);
            int c_ref = ref.runSet(a.data(), b.data(), 8);
            ASSERT_EQ(c_opt, c_ref)
                << "rows=" << rows << " set=" << set;
        }
        for (int r = 0; r < rows; ++r) {
            ASSERT_EQ(opt.accumulator(r).total(),
                      ref.accumulator(r).total())
                << "rows=" << rows << " pe=" << r;
            ASSERT_EQ(opt.accumulator(r).chunkRegister().readDouble(),
                      ref.accumulator(r).chunkRegister().readDouble())
                << "rows=" << rows << " pe=" << r;
        }
        expectStatsEqual(opt.aggregateStats(), ref.aggregateStats(),
                         "single-pending-lane column stats");
    }
}

/**
 * Settle-skew tiles: column c's A vector carries c+1 live lanes with
 * an exponent spread that grows with c, so in any step each column's
 * settle fixpoint converges on a different iteration. The fused
 * step-major sweep retires columns from its busy mask one by one; the
 * cycles, outputs, and statistics must be bit-identical to the seed
 * reference tile. (A tile runs on its caller's thread, so the thread
 * count of the surrounding engine cannot reach it.)
 */
TEST(DifferentialFuzz, SettleSkewTilesMatchReferenceAtAnyThreadCount)
{
    Rng gen(424243);
    TileConfig cfg;
    cfg.rows = 4;
    cfg.cols = 6;
    cfg.pe.obThreshold = 10;
    const int lanes = cfg.pe.lanes;
    const size_t a_len = static_cast<size_t>(cfg.cols) * lanes;
    const size_t b_len = static_cast<size_t>(cfg.rows) * lanes;
    const size_t steps = 20;

    std::vector<BFloat16> a(steps * a_len);
    for (size_t s = 0; s < steps; ++s)
        for (int c = 0; c < cfg.cols; ++c) {
            BFloat16 *col = a.data() + s * a_len +
                            static_cast<size_t>(c) * lanes;
            for (int l = 0; l <= c; ++l) {
                double mag =
                    std::exp2(gen.gaussian(0.0, 1.0 + 2.0 * c));
                col[l] = bf16(static_cast<float>(
                    gen.bernoulli(0.5) ? -mag : mag));
            }
        }
    std::vector<BFloat16> b(steps * b_len);
    for (auto &x : b)
        x = bf16(static_cast<float>(gen.gaussian(0.0, 2.0)));

    ReferenceTile ref(cfg.pe, cfg.rows, cfg.cols, cfg.bufferDepth);
    ReferenceTileResult res = ref.run(a.data(), b.data(), steps);

    Tile tile(cfg);
    std::vector<TileStepView> views(steps);
    for (size_t s = 0; s < steps; ++s)
        views[s] = TileStepView{a.data() + s * a_len,
                                b.data() + s * b_len};
    TileRunResult opt = tile.run(views.data(), steps);

    ASSERT_EQ(opt.cycles, res.cycles);
    for (int r = 0; r < cfg.rows; ++r)
        for (int c = 0; c < cfg.cols; ++c)
            ASSERT_EQ(tile.output(r, c), ref.output(r, c))
                << "PE (" << r << "," << c << ")";
    expectStatsEqual(tile.aggregateStats(), ref.aggregateStats(),
                     "settle-skew tile stats");
}

/**
 * The batched multi-set dot must be bit-identical to driving the same
 * sets one runSet at a time — including a ragged final set, which runs
 * masked (padded lanes are architecturally absent, so they must not
 * appear in cycles or statistics). Full-set prefixes are additionally
 * pinned to the seed ReferenceColumn.
 */
TEST(DifferentialFuzz, BatchedDotMatchesPerSetReference)
{
    Rng rng(777001);
    const FuzzCase stream_shape{0,  -1,  TermEncoding::Canonical,
                                12, 64, 0.3, 3.0};
    for (int rows : {1, 2, 5}) {
        // 37 full sets + a 5-lane ragged tail, which decodes and
        // steps only its 5 active lanes.
        const size_t len = 8 * 37 + 5;
        const int stride = static_cast<int>(len);
        auto a = randomStream(rng, len, stream_shape);
        auto b = randomStream(rng, static_cast<size_t>(rows) * len,
                              stream_shape);

        PeConfig cfg;
        cfg.obThreshold = 9;
        FPRakerColumn batched(cfg, rows);
        int batched_cycles =
            batched.dot(a.data(), b.data(), stride, len);

        FPRakerColumn per_set(cfg, rows);
        ReferenceColumn ref(cfg, rows);
        int per_set_cycles = 0;
        int full_set_cycles = 0;
        int ref_cycles = 0;
        for (size_t i = 0; i < len; i += 8) {
            const int act =
                static_cast<int>(std::min<size_t>(8, len - i));
            int c = per_set.runSet(a.data() + i, b.data() + i, stride,
                                   act);
            per_set_cycles += c;
            // The lone ragged set is last, so the reference sees the
            // same pre-set accumulator state for every full set.
            if (act == 8) {
                full_set_cycles += c;
                ref_cycles +=
                    ref.runSet(a.data() + i, b.data() + i, stride);
            }
        }
        ASSERT_EQ(batched_cycles, per_set_cycles) << "rows=" << rows;
        for (int r = 0; r < rows; ++r) {
            ASSERT_EQ(batched.accumulator(r).total(),
                      per_set.accumulator(r).total())
                << "rows=" << rows << " pe=" << r;
            ASSERT_EQ(
                batched.accumulator(r).chunkRegister().readDouble(),
                per_set.accumulator(r).chunkRegister().readDouble())
                << "rows=" << rows << " pe=" << r;
        }
        expectStatsEqual(batched.aggregateStats(),
                         per_set.aggregateStats(),
                         "batched dot stats");
        // The seed reference saw every full set; its cycle total must
        // be exactly what the optimized walk charged for those sets.
        ASSERT_EQ(full_set_cycles, ref_cycles) << "rows=" << rows;
    }
}

/** Operand shapes for the value-MAC differential below. */
enum class ValueCase
{
    Random,         //!< Random signs, exponents, mantissas, zeros.
    ExponentSkew,   //!< Products at both ends of the exponent range.
    AllOutOfBounds, //!< One large set, then sets far below its window.
    ZeroLanes,      //!< Zero A and zero B lanes (either sign).
    Cancelling,     //!< Second half cancels the first: exponent falls.
    ReluGaussian,   //!< fig17-like: ReLU activations x Gaussian weights.
    WideTree,       //!< Products ~48 bits apart: the exact tree's edge.
    AlignedLanes,   //!< Equal products: the widest window sums.
};

/** A finite, normal bf16 with the given sign, unbiased exponent, mantissa. */
BFloat16
bf16Of(bool neg, int exp, int mantissa)
{
    return BFloat16::fromFields(neg, exp + BFloat16::kBias, mantissa);
}

BFloat16
randomNormal(Rng &rng, int exp_lo, int exp_hi)
{
    return bf16Of(rng.bernoulli(0.5),
                  static_cast<int>(rng.uniformInt(exp_lo, exp_hi)),
                  static_cast<int>(rng.uniformInt(128)));
}

/** One dot's operands as bf16 bit patterns (no denormals, all finite). */
void
valueCaseOperands(ValueCase vc, size_t n, Rng &rng,
                  std::vector<BFloat16> &a, std::vector<BFloat16> &b)
{
    a.assign(n, BFloat16());
    b.assign(n, BFloat16());
    for (size_t i = 0; i < n; ++i) {
        switch (vc) {
          case ValueCase::Random:
            if (!rng.bernoulli(0.15))
                a[i] = randomNormal(rng, -20, 20);
            if (!rng.bernoulli(0.15))
                b[i] = randomNormal(rng, -20, 20);
            break;
          case ValueCase::ExponentSkew: {
            // Each product sits near either end of what FP32 can read
            // back: the MAX block aligns the accumulator to the top.
            const bool hi = rng.bernoulli(0.3);
            a[i] = randomNormal(rng, hi ? 56 : -60, hi ? 58 : -58);
            b[i] = randomNormal(rng, hi ? 56 : -60, hi ? 58 : -58);
            break;
          }
          case ValueCase::AllOutOfBounds: {
            // The first set raises the accumulator; every later term
            // falls past the threshold on its first term.
            const bool lead = i < 8;
            a[i] = randomNormal(rng, lead ? 20 : -30, lead ? 24 : -20);
            b[i] = randomNormal(rng, lead ? 20 : -30, lead ? 24 : -20);
            break;
          }
          case ValueCase::ZeroLanes:
            a[i] = rng.bernoulli(0.4) ? bf16Of(rng.bernoulli(0.5), -127, 0)
                                      : randomNormal(rng, -6, 6);
            b[i] = rng.bernoulli(0.4) ? bf16Of(rng.bernoulli(0.5), -127, 0)
                                      : randomNormal(rng, -6, 6);
            break;
          case ValueCase::Cancelling:
            if (i < (n + 1) / 2) {
                a[i] = randomNormal(rng, -4, 4);
                b[i] = randomNormal(rng, -4, 4);
            } else {
                // Mirror the first half with the product negated,
                // sometimes nudged by one ulp so a residue survives.
                const size_t j = i - (n + 1) / 2;
                a[i] = a[j];
                b[i] = -b[j];
                if (rng.bernoulli(0.2))
                    a[i] = BFloat16::fromBits(
                        static_cast<uint16_t>(a[i].bits() ^ 1u));
            }
            break;
          case ValueCase::WideTree:
            // Under an unrestricted window, lanes this far apart fire
            // together and the tree spans about 48 bits.
            a[i] = randomNormal(rng, 0, 2);
            b[i] = rng.bernoulli(0.5) ? randomNormal(rng, 0, 2)
                                      : randomNormal(rng, -49, -46);
            break;
          case ValueCase::ReluGaussian: {
            const double x = rng.gaussian(0.0, 1.0);
            a[i] = bf16(static_cast<float>(x > 0.0 ? x : 0.0));
            b[i] = bf16(static_cast<float>(rng.gaussian(0.0, 0.2)));
            break;
          }
          case ValueCase::AlignedLanes:
            // Lane 0's A, and its B's sign and exponent with near-full
            // significands: all lanes fire each term at the window's top
            // shift, so window 4 fills int16 and window 5 overflows it.
            a[i] = i == 0 ? randomNormal(rng, -4, 4) : a[0];
            b[i] = i == 0 ? randomNormal(rng, -4, 4)
                          : BFloat16::fromBits(static_cast<uint16_t>(
                                (b[0].bits() & 0xff80) |
                                (120 + rng.uniformInt(8))));
            break;
        }
    }
}

/** The cycle-level PE over zero-padded sets of cfg.lanes pairs. */
float
cycleModelDot(const PeConfig &cfg, const std::vector<BFloat16> &a,
              const std::vector<BFloat16> &b)
{
    FPRakerPe pe(cfg);
    const size_t lanes = static_cast<size_t>(cfg.lanes);
    std::vector<MacPair> pairs(lanes);
    for (size_t i = 0; i < a.size(); i += lanes) {
        for (size_t l = 0; l < lanes; ++l)
            pairs[l] = i + l < a.size() ? MacPair{a[i + l], b[i + l]}
                                        : MacPair{};
        pe.processSet(pairs.data(), cfg.lanes);
    }
    return pe.resultFloat();
}

/** MacEngine's FPRaker mode over the same operands, as floats. */
float
valueMacDot(const PeConfig &cfg, const std::vector<BFloat16> &a,
            const std::vector<BFloat16> &b)
{
    std::vector<float> fa(a.size()), fb(b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        fa[i] = a[i].toFloat();
        fb[i] = b[i].toFloat();
    }
    const MacEngine eng(MacMode::FPRakerEmulated, cfg);
    return eng.dot(fa.data(), fb.data(), a.size());
}

/**
 * MacEngine's FPRakerEmulated mode runs the value-only MAC; it must
 * accumulate exactly what FPRakerPe::processSet does over the same
 * zero-padded sets, in every configuration the PE supports: encodings,
 * shift windows (including the unrestricted Bit-Pragmatic one),
 * out-of-bounds thresholds and accumulator widths (Fig. 21), chunk
 * sizes that flush mid-dot, and lane counts.
 */
TEST(ValueMac, MatchesCycleModelBitForBit)
{
    std::vector<std::pair<std::string, PeConfig>> configs;
    configs.emplace_back("default", PeConfig{});
    {
        PeConfig c;
        c.skipOutOfBounds = false;
        configs.emplace_back("no-ob-skip", c);
    }
    // Windows 0-4 run the vector body; 5-8 run the one-PE column.
    for (int delta = 0; delta <= 8; ++delta) {
        PeConfig c;
        c.maxDelta = delta;
        configs.emplace_back("maxDelta=" + std::to_string(delta), c);
    }
    configs.emplace_back("bit-pragmatic", bitPragmaticFpConfig());
    {
        PeConfig c;
        c.encoding = TermEncoding::RawBits;
        configs.emplace_back("raw-bits", c);
    }
    for (int w = 4; w <= 12; ++w) {
        PeConfig c;
        c.acc.fracBits = w;
        c.obThreshold = w;
        configs.emplace_back("width=" + std::to_string(w), c);
        PeConfig t;
        t.obThreshold = w;
        configs.emplace_back("obThreshold=" + std::to_string(w), t);
    }
    for (int chunk : {8, 16}) {
        PeConfig c;
        c.acc.chunkSize = chunk;
        configs.emplace_back("chunk=" + std::to_string(chunk), c);
    }
    for (int lanes : {2, 16}) {
        PeConfig c;
        c.lanes = lanes;
        configs.emplace_back("lanes=" + std::to_string(lanes), c);
    }

    std::vector<size_t> lengths;
    for (size_t n = 1; n <= 40; ++n)
        lengths.push_back(n);
    lengths.push_back(100);

    const ValueCase cases[] = {
        ValueCase::Random,     ValueCase::ExponentSkew,
        ValueCase::AllOutOfBounds, ValueCase::ZeroLanes,
        ValueCase::Cancelling, ValueCase::ReluGaussian,
        ValueCase::WideTree,   ValueCase::AlignedLanes,
    };
    Rng rng(20101);
    std::vector<BFloat16> a, b;
    for (const auto &[name, cfg] : configs)
        for (ValueCase vc : cases)
            for (size_t n : lengths)
                for (int rep = 0; rep < 2; ++rep) {
                    valueCaseOperands(vc, n, rng, a, b);
                    const float want = cycleModelDot(cfg, a, b);
                    const float got = valueMacDot(cfg, a, b);
                    ASSERT_EQ(std::bit_cast<uint32_t>(got),
                              std::bit_cast<uint32_t>(want))
                        << name << " case " << static_cast<int>(vc)
                        << " n=" << n << ": " << got << " vs " << want;
                }
}

#if GTEST_HAS_DEATH_TEST
TEST(ValueMacDeathTest, NonFiniteOperandsPanic)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    PeConfig narrow;
    narrow.lanes = 4;
    for (const PeConfig &cfg : {PeConfig{}, narrow}) {
        const MacEngine eng(MacMode::FPRakerEmulated, cfg);
        // In the first, full set and in the padded tail set.
        for (size_t at : {3, 9})
            for (float bad : {inf, -inf, nan}) {
                std::vector<float> ok(11, 1.5f);
                std::vector<float> poisoned = ok;
                poisoned[at] = bad;
                EXPECT_DEATH(
                    eng.dot(poisoned.data(), ok.data(), ok.size()),
                    "non-finite");
                EXPECT_DEATH(
                    eng.dot(ok.data(), poisoned.data(), ok.size()),
                    "non-finite");
            }
    }
}
#endif // GTEST_HAS_DEATH_TEST

} // namespace
} // namespace fpraker
