/**
 * @file
 * Tests for the training-emulation framework (Fig. 17/21 substrate).
 */

#include <bit>
#include <cmath>
#include <set>
#include <thread>
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

TEST(MacEngine, StridedDotMatchesDense)
{
    std::vector<float> a = {1.0f, 2.0f, 3.0f};
    std::vector<float> b = {1.0f, -1.0f, 2.0f, -2.0f, 3.0f, -3.0f};
    MacEngine eng(MacMode::NativeFp32);
    // Stride 2 picks 1, 2, 3.
    EXPECT_EQ(eng.dotStrided(a.data(), b.data(), 3, 2), 14.0f);
}

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
