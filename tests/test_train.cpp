/**
 * @file
 * Tests for the training-emulation framework (Fig. 17/21 substrate).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trace/model_zoo.h"
#include "train/acc_width_profiler.h"
#include "train/dataset.h"
#include "train/trainer.h"

namespace fpraker {
namespace {

TEST(Matrix, BasicOps)
{
    Matrix m(2, 3);
    m.at(0, 0) = 1.0f;
    m.at(1, 2) = 5.0f;
    Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.at(2, 1), 5.0f);
    Matrix n(2, 3, 1.0f);
    m.addScaled(n, 2.0f);
    EXPECT_EQ(m.at(0, 0), 3.0f);
    m.zero();
    EXPECT_EQ(m.at(1, 2), 0.0f);
}

TEST(MacEngine, ModesAgreeOnBenignData)
{
    Rng rng(3);
    std::vector<float> a(64), b(64);
    for (size_t i = 0; i < 64; ++i) {
        a[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
        b[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
    }
    MacEngine fp32(MacMode::NativeFp32);
    MacEngine bf16c(MacMode::Bf16Chunked);
    MacEngine fpr(MacMode::FPRakerEmulated);
    float r32 = fp32.dot(a.data(), b.data(), 64);
    float rbf = bf16c.dot(a.data(), b.data(), 64);
    float rfp = fpr.dot(a.data(), b.data(), 64);
    // bfloat16 inputs round at 2^-8 relative; over 64 products the
    // divergence stays small relative to the magnitude scale.
    EXPECT_NEAR(rbf, r32, 0.15f * (std::fabs(r32) + 8.0f));
    EXPECT_NEAR(rfp, rbf, 0.02f * (std::fabs(rbf) + 8.0f));
}

/**
 * matmulT converts each operand matrix once and walks contiguous rows;
 * every element must still be bit-equal to dot() over the same two
 * rows, in every mode and in both value-MAC paths (the vector body for
 * the default 8-lane PE, the one-PE column for the other shapes).
 * Bf16Chunked walks a row's dots four at a time, so bt takes 1 to 7
 * rows: full groups of four and every leftover count.
 */
TEST(MacEngine, MatmulTMatchesPerDotBitForBit)
{
    PeConfig lanes4;
    lanes4.lanes = 4;
    PeConfig lanes16;
    lanes16.lanes = 16;
    PeConfig delta8;
    delta8.maxDelta = 8;
    const std::pair<MacMode, PeConfig> engines[] = {
        {MacMode::NativeFp32, PeConfig{}},
        {MacMode::Bf16Chunked, PeConfig{}},
        {MacMode::FPRakerEmulated, PeConfig{}},
        {MacMode::FPRakerEmulated, lanes4},
        {MacMode::FPRakerEmulated, lanes16},
        {MacMode::FPRakerEmulated, delta8},
    };

    Rng rng(1517);
    for (size_t n : {1, 7, 8, 9, 32, 100}) {
        // a: a +0 row, a ReLU-like row, a row of signed zeros among
        // values, and two rows spread over 2^-60..2^60. bt: a -0 row,
        // small weights, and wide rows.
        Matrix a(5, n), bt(7, n);
        for (size_t k = 0; k < n; ++k) {
            const double g = rng.gaussian(0.0, 1.0);
            a.at(1, k) = static_cast<float>(g > 0.0 ? g : 0.0);
            a.at(2, k) = k % 3 == 0 ? (k % 2 ? -0.0f : 0.0f)
                                    : static_cast<float>(g);
            bt.at(0, k) = -0.0f;
            bt.at(1, k) = static_cast<float>(rng.gaussian(0.0, 0.1));
            for (size_t r : {3, 4})
                a.at(r, k) = static_cast<float>(
                    std::ldexp(rng.gaussian(0.0, 1.0),
                               static_cast<int>(rng.uniformInt(0, 120)) -
                                   60));
            for (size_t r = 2; r < bt.rows(); ++r)
                bt.at(r, k) = static_cast<float>(
                    std::ldexp(rng.gaussian(0.0, 1.0),
                               static_cast<int>(rng.uniformInt(0, 120)) -
                                   60));
        }
        for (size_t m = 1; m <= bt.rows(); ++m) {
            // bt's first m rows.
            Matrix btm(m, n);
            std::copy(bt.data(), bt.data() + m * n, btm.data());
            for (const auto &[mode, cfg] : engines) {
                const MacEngine eng(mode, cfg);
                const Matrix c = eng.matmulT(a, btm);
                ASSERT_EQ(c.rows(), a.rows());
                ASSERT_EQ(c.cols(), m);
                for (size_t i = 0; i < a.rows(); ++i)
                    for (size_t j = 0; j < m; ++j)
                        ASSERT_EQ(std::bit_cast<uint32_t>(c.at(i, j)),
                                  std::bit_cast<uint32_t>(eng.dot(
                                      a.row(i), btm.row(j), n)))
                            << macModeLabel(mode) << " lanes=" << cfg.lanes
                            << " maxDelta=" << cfg.maxDelta << " n=" << n
                            << " bt rows=" << m << " (" << i << ", " << j
                            << ")";
            }
        }
    }
}

/**
 * NativeFp32's one FP32 dot loop, on the FMA instruction where an x86-64
 * CPU has one, must be bit-equal in dot() and matmulT() to the same loop
 * on libm's fmaf (this file is built without -mfma) at lengths 0 to 100.
 * Operands are signed zeros, subnormals, normals in 2^-24 .. 2^0 and, in
 * a only, near-overflow values in 2^120 .. 2^121: products stay below
 * 2^121 and sums finite, so the check compares fused sums in the top
 * binades, not how infinities propagate.
 */
TEST(MacEngine, Fp32DotMatchesLibmFma)
{
    Rng rng(4217);
    const auto operand = [&rng](uint64_t classes) {
        const float sign = rng.bernoulli(0.5) ? -1.0f : 1.0f;
        const float sig = static_cast<float>(rng.uniform(1, 1.99));
        switch (rng.uniformInt(classes)) {
          case 0:
            return sign * 0.0f;
          case 1:
            return sign * 0x1p-149f *
                   static_cast<float>(rng.uniformInt(1, (1 << 23) - 1));
          case 2:
            return sign * std::ldexp(sig, static_cast<int>(
                                              rng.uniformInt(-24, -1)));
          default:
            return sign * std::ldexp(sig, 120);
        }
    };

    const MacEngine eng(MacMode::NativeFp32);
    float top = 0.0f;
    for (size_t n = 0; n <= 100; ++n) {
        // Row r draws from the first r + 2 classes above, bt's from 3 at most.
        Matrix a(3, n), bt(3, n);
        for (size_t r = 0; r < 3; ++r)
            for (size_t k = 0; k < n; ++k) {
                a.at(r, k) = operand(r + 2);
                bt.at(r, k) = operand(r == 2 ? 3 : r + 2);
            }
        const Matrix c = eng.matmulT(a, bt);
        for (size_t i = 0; i < 3; ++i)
            for (size_t j = 0; j < 3; ++j) {
                float libm = 0.0f;
                for (size_t k = 0; k < n; ++k)
                    libm = std::fma(a.at(i, k), bt.at(j, k), libm);
                ASSERT_TRUE(std::isfinite(libm)) << "n=" << n;
                top = std::fmax(top, std::fabs(libm));
                const uint32_t want = std::bit_cast<uint32_t>(libm);
                const float dot = eng.dot(a.row(i), bt.row(j), n);
                ASSERT_EQ(std::bit_cast<uint32_t>(c.at(i, j)), want)
                    << "matmulT n=" << n << " (" << i << ", " << j << ")";
                ASSERT_EQ(std::bit_cast<uint32_t>(dot), want)
                    << "dot n=" << n << " (" << i << ", " << j << ")";
            }
    }
    EXPECT_GE(top, 0x1p120f); // The near-overflow sums are reached.
}

#if GTEST_HAS_DEATH_TEST
TEST(MacEngineDeathTest, NonFiniteOperandsPanic)
{
    // Converting each matrix once must not drop the finite check: a
    // NaN or infinity in either operand panics, inside the first full
    // 8-lane set (k = 3) and in the padded tail set (k = 9).
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (MacMode mode : {MacMode::Bf16Chunked, MacMode::FPRakerEmulated}) {
        const MacEngine eng(mode);
        for (size_t at : {3, 9})
            for (float bad : {inf, -inf, nan}) {
                const Matrix ok(2, 11, 1.5f);
                Matrix poisoned = ok;
                poisoned.at(1, at) = bad;
                EXPECT_DEATH(eng.matmulT(poisoned, ok), "non-finite")
                    << macModeLabel(mode) << " k=" << at;
                EXPECT_DEATH(eng.matmulT(ok, poisoned), "non-finite")
                    << macModeLabel(mode) << " k=" << at;
            }
    }
}
#endif // GTEST_HAS_DEATH_TEST

TEST(MacEngine, ConstEngineIsReentrant)
{
    // One const engine per mode serves four threads at once; every
    // thread must reproduce the serial results bit for bit.
    Rng rng(11);
    const size_t dots = 96;
    std::vector<std::vector<float>> a(dots), b(dots);
    for (size_t d = 0; d < dots; ++d) {
        const size_t n = 1 + d % 40;
        for (size_t i = 0; i < n; ++i) {
            const double x = rng.gaussian(0.0, 1.0);
            a[d].push_back(static_cast<float>(x > 0.0 ? x : 0.0));
            b[d].push_back(static_cast<float>(rng.gaussian(0.0, 0.2)));
        }
    }
    for (MacMode mode : {MacMode::NativeFp32, MacMode::Bf16Chunked,
                         MacMode::FPRakerEmulated}) {
        const MacEngine eng(mode);
        std::vector<uint32_t> serial(dots);
        for (size_t d = 0; d < dots; ++d)
            serial[d] = std::bit_cast<uint32_t>(
                eng.dot(a[d].data(), b[d].data(), a[d].size()));

        const int threads = 4;
        std::vector<std::vector<uint32_t>> got(
            threads, std::vector<uint32_t>(dots));
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                // Each thread walks the dots in its own order, so the
                // threads overlap on every dot.
                for (size_t i = 0; i < dots; ++i) {
                    const size_t d = (i * 7 + static_cast<size_t>(t) * 31) %
                                     dots;
                    got[t][d] = std::bit_cast<uint32_t>(
                        eng.dot(a[d].data(), b[d].data(), a[d].size()));
                }
            });
        for (auto &th : pool)
            th.join();
        for (int t = 0; t < threads; ++t)
            EXPECT_EQ(got[t], serial)
                << macModeLabel(mode) << " thread " << t;
    }
}

TEST(Dataset, GeneratesSeparableClasses)
{
    DatasetConfig cfg;
    cfg.trainSamples = 256;
    cfg.testSamples = 64;
    DatasetPair d = makeSynthCifar(cfg);
    EXPECT_EQ(d.train.samples(), 256u);
    EXPECT_EQ(d.test.samples(), 64u);
    EXPECT_EQ(d.train.features(), 144u);
    // Labels cover multiple classes.
    std::set<int> seen(d.train.labels.begin(), d.train.labels.end());
    EXPECT_GT(seen.size(), 5u);
    for (int l : d.train.labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, cfg.classes);
    }
}

TEST(Dataset, DeterministicGivenSeed)
{
    DatasetConfig cfg;
    cfg.trainSamples = 32;
    cfg.testSamples = 8;
    DatasetPair a = makeSynthCifar(cfg);
    DatasetPair b = makeSynthCifar(cfg);
    EXPECT_EQ(a.train.labels, b.train.labels);
    for (size_t i = 0; i < a.train.x.size(); ++i)
        EXPECT_EQ(a.train.x.data()[i], b.train.x.data()[i]);
}

/** Small, fast training setup shared by the convergence tests. */
DatasetPair &
smallData()
{
    static DatasetPair data = [] {
        DatasetConfig cfg;
        cfg.classes = 6;
        cfg.imageSize = 8;
        cfg.trainSamples = 480;
        cfg.testSamples = 120;
        cfg.noise = 0.30;
        return makeSynthCifar(cfg);
    }();
    return data;
}

TrainConfig
smallTrainConfig()
{
    TrainConfig cfg;
    cfg.hidden = {24};
    cfg.epochs = 5;
    cfg.batchSize = 32;
    cfg.learningRate = 0.10f;
    return cfg;
}

TEST(Trainer, Fp32Converges)
{
    MlpTrainer trainer(smallData(), smallTrainConfig());
    TrainResult r = trainer.run(MacMode::NativeFp32);
    ASSERT_EQ(r.testAccuracy.size(), 5u);
    EXPECT_GT(r.finalAccuracy(), 0.70);
    // Loss decreases over training.
    EXPECT_LT(r.trainLoss.back(), r.trainLoss.front());
}

TEST(Trainer, AllThreeArithmeticModesConvergeTogether)
{
    // The Fig. 17 claim: bf16-baseline and FPRaker-emulated training
    // land within noise of each other (the paper reports within 0.1%
    // of FP32 on CIFAR; our tiny task gets a looser but tight band).
    MlpTrainer trainer(smallData(), smallTrainConfig());
    TrainResult fp32 = trainer.run(MacMode::NativeFp32);
    TrainResult bf16c = trainer.run(MacMode::Bf16Chunked);
    TrainResult fpr = trainer.run(MacMode::FPRakerEmulated);
    EXPECT_GT(bf16c.finalAccuracy(), 0.70);
    EXPECT_GT(fpr.finalAccuracy(), 0.70);
    EXPECT_NEAR(fpr.finalAccuracy(), bf16c.finalAccuracy(), 0.06);
    EXPECT_NEAR(fpr.finalAccuracy(), fp32.finalAccuracy(), 0.08);
}

TEST(AccWidthProfiler, WidthGrowsWithLength)
{
    AccWidthConfig cfg;
    EXPECT_LE(requiredFracBits(16, cfg), requiredFracBits(256, cfg));
    EXPECT_LE(requiredFracBits(256, cfg), requiredFracBits(65536, cfg));
    // Clamped to the architectural range.
    EXPECT_GE(requiredFracBits(1, cfg), cfg.minFracBits);
    EXPECT_LE(requiredFracBits(int64_t{1} << 40, cfg), cfg.maxFracBits);
}

TEST(AccWidthProfiler, ProfilesEveryLayerAndOp)
{
    auto widths = profileAccumulatorWidths(resnet18Layers());
    ASSERT_EQ(widths.size(), resnet18Layers().size());
    for (const auto &w : widths) {
        EXPECT_GE(w.forwardBits, 4);
        EXPECT_LE(w.forwardBits, 12);
        EXPECT_GE(w.inputGradBits, 4);
        EXPECT_GE(w.weightGradBits, 4);
    }
    // Most profiled widths sit below the fixed 12-bit register: that
    // headroom is what Fig. 21 converts into speedup.
    int below = 0;
    for (const auto &w : widths)
        below += w.forwardBits < 12;
    EXPECT_GT(below, static_cast<int>(widths.size()) / 2);
}

TEST(AccWidthProfiler, AccumulationLengthsFollowOps)
{
    LayerShape l;
    l.name = "x";
    l.m = 100;
    l.n = 200;
    l.k = 300;
    EXPECT_EQ(accumulationLength(l, TrainingOp::Forward), 300);
    EXPECT_EQ(accumulationLength(l, TrainingOp::InputGrad), 200);
    EXPECT_EQ(accumulationLength(l, TrainingOp::WeightGrad), 100);
}

} // namespace
} // namespace fpraker
