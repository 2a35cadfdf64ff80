/**
 * @file
 * Tests for the phase runner and the whole-accelerator model, whose
 * reports come from one-job sweeps.
 */

#include <gtest/gtest.h>

#include "accel/accelerator.h"
#include "sim/sweep_runner.h"
#include "trace/model_zoo.h"

namespace fpraker {
namespace {

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 48; // keep tests fast
    return cfg;
}

/** @p job run alone: a one-job sweep on a serial engine. */
LayerOpReport
runAlone(const SweepLayerJob &job)
{
    SimEngine serial(1);
    return SweepRunner(serial).runLayerOps({job}).front();
}

TEST(PhaseRunner, ChoosesSparserOperandAsSerial)
{
    // For Bert's weight-gradient op (A x G) the gradient profile has
    // far fewer expected terms than the activations.
    const ModelInfo &bert = findModel("Bert");
    EXPECT_EQ(chooseSerialSide(bert, TrainingOp::WeightGrad, 0.5),
              TensorKind::Gradient);
    // Forward on ResNet50-S2: weights are 80% sparse, so the weight
    // side serializes.
    const ModelInfo &r50 = findModel("ResNet50-S2");
    EXPECT_EQ(chooseSerialSide(r50, TrainingOp::Forward, 0.5),
              TensorKind::Weight);
}

TEST(PhaseRunner, ProducesPlausibleCycleCounts)
{
    const ModelInfo &model = findModel("VGG16");
    PhaseRunConfig cfg;
    cfg.sampleSteps = 48;
    PhaseRunResult r = runPhaseSample(model, model.layers[4],
                                      TrainingOp::Forward, 0.5, cfg);
    // The exponent floor guarantees at least 2 cycles per set, and
    // term-serial processing rarely exceeds ~10 for these profiles.
    EXPECT_GE(r.avgCyclesPerStep, 2.0);
    EXPECT_LE(r.avgCyclesPerStep, 12.0);
    EXPECT_EQ(r.steps, 48u);
    EXPECT_GT(r.peStats.laneUseful, 0u);
}

TEST(PhaseRunner, QuantizedModelNeedsFewerCycles)
{
    PhaseRunConfig cfg;
    cfg.sampleSteps = 64;
    const ModelInfo &q = findModel("ResNet18-Q");
    const ModelInfo &dense = findModel("NCF");
    PhaseRunResult rq = runPhaseSample(q, q.layers[3],
                                       TrainingOp::Forward, 1.0, cfg);
    PhaseRunResult rd = runPhaseSample(dense, dense.layers[0],
                                       TrainingOp::Forward, 1.0, cfg);
    EXPECT_LT(rq.avgCyclesPerStep, rd.avgCyclesPerStep);
}

TEST(Accelerator, LayerReportIsInternallyConsistent)
{
    Accelerator accel(smallConfig());
    const ModelInfo &model = findModel("SqueezeNet 1.1");
    LayerOpReport r = runAlone(SweepLayerJob{
        &accel, &model, &model.layers[0], TrainingOp::Forward, 0.5});
    EXPECT_GT(r.tileSteps, 0u);
    EXPECT_GT(r.fprComputeCycles, 0.0);
    EXPECT_GT(r.baseComputeCycles, 0.0);
    EXPECT_GE(r.fprCycles, r.fprComputeCycles - 1e-9);
    EXPECT_GE(r.fprCycles, r.fprMemCycles - 1e-9);
    EXPECT_GT(r.trafficBytes, 0.0);
    EXPECT_LE(r.trafficBytesCompressed, r.trafficBytes);
    EXPECT_GT(r.fprEnergy.totalPj(), 0.0);
    EXPECT_GT(r.baseEnergy.totalPj(), 0.0);
}

TEST(Accelerator, SpeedupInPlausibleRange)
{
    // The iso-area configuration gives FPRaker 4.5x the PEs; with
    // term-serial slowdown the paper lands at 1.2-2.1x. Accept a
    // generous band to stay robust to profile tweaks.
    Accelerator accel(smallConfig());
    const ModelInfo &model = findModel("ResNet18-Q");
    // Use a few representative layers to keep runtime bounded.
    double fpr = 0, base = 0;
    for (size_t i : {size_t{1}, size_t{5}, size_t{9}}) {
        LayerOpReport r = runAlone(SweepLayerJob{
            &accel, &model, &model.layers[i], TrainingOp::Forward, 1.0});
        fpr += r.fprCycles;
        base += r.baseCycles;
    }
    double speedup = base / fpr;
    EXPECT_GT(speedup, 1.0);
    EXPECT_LT(speedup, 4.5);
}

TEST(Accelerator, ObSkippingImprovesPerformance)
{
    AcceleratorConfig on_cfg = smallConfig();
    AcceleratorConfig off_cfg = smallConfig();
    off_cfg.tile.pe.skipOutOfBounds = false;
    Accelerator on(on_cfg), off(off_cfg);
    const ModelInfo &model = findModel("Bert"); // tiny gradients: OB-rich
    LayerOpReport r_on = runAlone(SweepLayerJob{
        &on, &model, &model.layers[0], TrainingOp::WeightGrad, 0.5});
    LayerOpReport r_off = runAlone(SweepLayerJob{
        &off, &model, &model.layers[0], TrainingOp::WeightGrad, 0.5});
    EXPECT_LT(r_on.fprComputeCycles, r_off.fprComputeCycles);
    EXPECT_GT(r_on.activity.termsObSkipped, 0.0);
    EXPECT_EQ(r_off.activity.termsObSkipped, 0.0);
}

TEST(Accelerator, BdcReducesMemoryCyclesOnly)
{
    AcceleratorConfig bdc_cfg = smallConfig();
    AcceleratorConfig raw_cfg = smallConfig();
    raw_cfg.useBdc = false;
    Accelerator with(bdc_cfg), without(raw_cfg);
    const ModelInfo &model = findModel("VGG16");
    // fc6 is memory-heavy (25088x4096 weights, tiny M).
    const LayerShape &fc6 = model.layers[13];
    ASSERT_EQ(fc6.name, "fc6");
    LayerOpReport r_bdc = runAlone(
        SweepLayerJob{&with, &model, &fc6, TrainingOp::Forward, 0.5});
    LayerOpReport r_raw = runAlone(
        SweepLayerJob{&without, &model, &fc6, TrainingOp::Forward, 0.5});
    EXPECT_LT(r_bdc.trafficBytesCompressed, r_raw.trafficBytesCompressed);
    EXPECT_LE(r_bdc.fprMemCycles, r_raw.fprMemCycles);
    EXPECT_NEAR(r_bdc.fprComputeCycles, r_raw.fprComputeCycles, 1e-6);
}

TEST(Accelerator, BdcFootprintsFollowTheProfileNotTheName)
{
    // Two models with one name and different value profiles: each gets
    // the compressed traffic a fresh accelerator gives it, whichever
    // one accelerator met first.
    const ModelInfo &vgg = findModel("VGG16");
    ModelInfo renamed = findModel("ResNet18-Q");
    renamed.name = vgg.name;
    renamed.layers = vgg.layers;
    const LayerShape &fc6 = vgg.layers[13];
    auto traffic = [&](const Accelerator &accel, const ModelInfo &model) {
        // Traffic reads no phase sample.
        return accel
            .layerOpReport(model, fc6, TrainingOp::Forward, 0.5,
                           PhaseRunResult{})
            .trafficBytesCompressed;
    };
    const double want_vgg = traffic(Accelerator(smallConfig()), vgg);
    const double want_renamed =
        traffic(Accelerator(smallConfig()), renamed);
    ASSERT_NE(want_vgg, want_renamed);

    const Accelerator shared(smallConfig());
    EXPECT_EQ(traffic(shared, vgg), want_vgg);
    EXPECT_EQ(traffic(shared, renamed), want_renamed);
}

TEST(Accelerator, ModelReportAggregatesOps)
{
    AcceleratorConfig cfg = smallConfig();
    cfg.sampleSteps = 24;
    Accelerator accel(cfg);
    // NCF is the smallest model; run it end to end, one unit at a
    // time, and reduce the units into the model report.
    const ModelInfo &ncf = findModel("NCF");
    std::vector<LayerOpReport> ops;
    for (const LayerOpUnit &u : Accelerator::modelUnits(ncf))
        ops.push_back(
            runAlone(SweepLayerJob{&accel, &ncf, u.layer, u.op, 0.5}));
    ModelRunReport report =
        Accelerator::reduceModel(ncf, 0.5, std::move(ops));
    ASSERT_EQ(report.ops.size(), ncf.layers.size() * 3);
    double fpr = 0, base = 0;
    for (const auto &op : report.ops) {
        fpr += op.fprCycles;
        base += op.baseCycles;
    }
    EXPECT_NEAR(report.fprCycles, fpr, 1e-6);
    EXPECT_NEAR(report.baseCycles, base, 1e-6);
    EXPECT_GT(report.speedup(), 0.5);
    EXPECT_GT(report.coreEnergyEfficiency(), 0.5);
    // Per-op speedups are defined for all three phases.
    for (TrainingOp op : {TrainingOp::Forward, TrainingOp::InputGrad,
                          TrainingOp::WeightGrad})
        EXPECT_GT(report.speedupForOp(op), 0.0);
}

TEST(Accelerator, ScaledActivityTracksSampleRatios)
{
    Accelerator accel(smallConfig());
    const ModelInfo &model = findModel("SNLI");
    LayerOpReport r = runAlone(SweepLayerJob{
        &accel, &model, &model.layers[0], TrainingOp::Forward, 0.5});
    // Scaling preserves the useful-fraction ratio.
    double sample_useful =
        static_cast<double>(r.sampleStats.laneUseful) /
        static_cast<double>(r.sampleStats.laneCycles());
    double scaled_useful = r.activity.laneUseful / r.activity.laneCycles();
    EXPECT_NEAR(sample_useful, scaled_useful, 1e-9);
}

} // namespace
} // namespace fpraker
