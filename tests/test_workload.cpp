/**
 * @file
 * Tests for the workload subsystem: im2col/GEMM lowering dimensions
 * against hand-computed values, trace-backed vs generator-backed slab
 * bit-identity, layer-op report parity through the SlabSupply seam,
 * ContainerMatrix slab ingestion, and thread-count fingerprint
 * determinism of the workload experiments.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "api/driver.h"
#include "api/registry.h"
#include "api/result.h"
#include "memory/data_supply.h"
#include "sim/sweep_runner.h"
#include "workload/supply.h"

namespace fpraker {
namespace {

using workload::BatchGeometry;
using workload::CatalogLayer;
using workload::CatalogModel;
using workload::lowerLayer;
using workload::LoweredModel;
using workload::PhaseTrace;
using workload::TraceSlabSupply;

/** @p job run alone: a one-job sweep on a serial engine. */
LayerOpReport
runAlone(const SweepLayerJob &job)
{
    SimEngine serial(1);
    return SweepRunner(serial).runLayerOps({job}).front();
}

const CatalogLayer &
layerNamed(const CatalogModel &m, const std::string &name)
{
    for (const CatalogLayer &l : m.layers)
        if (l.name == name)
            return l;
    ADD_FAILURE() << "no layer " << name << " in " << m.name;
    return m.layers.front();
}

TEST(Lowering, AlexNetConv2HandComputed)
{
    // conv2: 27x27 input, 96 -> 256 channels, 5x5, stride 1, pad 2
    // => 27x27 output grid. At batch 16 the im2col GEMM is
    // M = 16*27*27, N = 256, K = 96*5*5.
    const CatalogModel &m = workload::findWorkloadModel("AlexNet");
    const CatalogLayer &conv2 = layerNamed(m, "conv2");
    const BatchGeometry geom{16, 64};

    LayerShape fwd = lowerLayer(conv2, TrainingOp::Forward, geom);
    EXPECT_EQ(fwd.m, 16 * 27 * 27);
    EXPECT_EQ(fwd.n, 256);
    EXPECT_EQ(fwd.k, 96 * 5 * 5);
    EXPECT_EQ(fwd.kernelArea, 25);
    EXPECT_EQ(fwd.type, LayerType::Conv);

    // input-grad transposes (M, N, K) -> (M, K, N); its [M, K]
    // operand is the unduplicated output gradient.
    LayerShape ig = lowerLayer(conv2, TrainingOp::InputGrad, geom);
    EXPECT_EQ(ig.m, fwd.m);
    EXPECT_EQ(ig.n, fwd.k);
    EXPECT_EQ(ig.k, fwd.n);
    EXPECT_EQ(ig.kernelArea, 1);

    // weight-grad transposes (M, N, K) -> (K, N, M); it reads the
    // im2col'd activations again.
    LayerShape wg = lowerLayer(conv2, TrainingOp::WeightGrad, geom);
    EXPECT_EQ(wg.m, fwd.k);
    EXPECT_EQ(wg.n, fwd.n);
    EXPECT_EQ(wg.k, fwd.m);
    EXPECT_EQ(wg.kernelArea, 25);
}

TEST(Lowering, Vgg16Conv32HandComputed)
{
    // conv3_2: 56x56, 256 -> 256, 3x3 same-padded => 56x56 output.
    const CatalogModel &m = workload::findWorkloadModel("VGG-16");
    const CatalogLayer &conv = layerNamed(m, "conv3_2");
    LayerShape fwd =
        lowerLayer(conv, TrainingOp::Forward, BatchGeometry{8, 64});
    EXPECT_EQ(fwd.m, 8 * 56 * 56);
    EXPECT_EQ(fwd.n, 256);
    EXPECT_EQ(fwd.k, 256 * 3 * 3);
    EXPECT_EQ(fwd.kernelArea, 9);
}

TEST(Lowering, ResNet50StemAndStridesHandComputed)
{
    // conv1: 224x224, 3 -> 64, 7x7 stride 2 pad 3
    // => (224 + 6 - 7) / 2 + 1 = 112.
    const CatalogModel &m = workload::findWorkloadModel("ResNet-50");
    const CatalogLayer &stem = layerNamed(m, "conv1");
    LayerShape fwd =
        lowerLayer(stem, TrainingOp::Forward, BatchGeometry{4, 64});
    EXPECT_EQ(fwd.m, 4 * 112 * 112);
    EXPECT_EQ(fwd.n, 64);
    EXPECT_EQ(fwd.k, 3 * 7 * 7);

    // A bottleneck 1x1 has kernelArea 1: im2col duplicates nothing.
    const CatalogLayer &pw = layerNamed(m, "res2_0/conv1");
    LayerShape pw_fwd =
        lowerLayer(pw, TrainingOp::Forward, BatchGeometry{4, 64});
    EXPECT_EQ(pw_fwd.m, 4 * 56 * 56);
    EXPECT_EQ(pw_fwd.n, 64);
    EXPECT_EQ(pw_fwd.k, 64);
    EXPECT_EQ(pw_fwd.kernelArea, 1);
}

TEST(Lowering, FcAndAttentionHandComputed)
{
    const CatalogModel &alex = workload::findWorkloadModel("AlexNet");
    LayerShape fc6 = lowerLayer(layerNamed(alex, "fc6"),
                                TrainingOp::Forward,
                                BatchGeometry{16, 64});
    EXPECT_EQ(fc6.m, 16);
    EXPECT_EQ(fc6.n, 4096);
    EXPECT_EQ(fc6.k, 9216);

    // Attention scores at batch 2, seq 64, 8 heads of 64 dims:
    // one Q*K^T GEMM per (batch, head) folds into M = 2*64*8.
    const CatalogModel &tr =
        workload::findWorkloadModel("Transformer-S");
    LayerShape scores = lowerLayer(layerNamed(tr, "scores"),
                                   TrainingOp::Forward,
                                   BatchGeometry{2, 64});
    EXPECT_EQ(scores.m, 2 * 64 * 8);
    EXPECT_EQ(scores.n, 64);
    EXPECT_EQ(scores.k, 512 / 8);

    LayerShape qkv = lowerLayer(layerNamed(tr, "qkv"),
                                TrainingOp::Forward,
                                BatchGeometry{2, 64});
    EXPECT_EQ(qkv.m, 2 * 64);
    EXPECT_EQ(qkv.n, 3 * 512);
    EXPECT_EQ(qkv.k, 512);
}

TEST(Supply, TraceReplayMatchesGeneratorBitExactly)
{
    // Every burst window a TraceSlabSupply replays must equal what
    // the generator-backed supply synthesizes, including the partial
    // final burst.
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 40; // not a multiple of stepsPerOutput
    const CatalogModel &cm = workload::findWorkloadModel("AlexNet");
    LoweredModel lm(cm, BatchGeometry{2, 64});

    for (size_t unit : {size_t(0), size_t(4), lm.units().size() - 1}) {
        const PhasePlan plan = workload::unitPlan(lm, unit, cfg, 0.5);
        PhaseTrace trace = PhaseTrace::capture(plan);
        TraceSlabSupply replay(trace);
        GeneratorSlabSupply gen(plan.serialProfile,
                                plan.parallelProfile, plan.baseSeed);

        ASSERT_GE(plan.bursts, 2u);
        for (size_t bi = 0; bi < plan.bursts; ++bi) {
            const size_t steps = plan.burstSteps(bi);
            std::vector<BFloat16> a(steps * plan.aLen);
            std::vector<BFloat16> b(steps * plan.aLen);
            replay.fillSerial(bi, a.data(), a.size());
            gen.fillSerial(bi, b.data(), b.size());
            EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(BFloat16)))
                << "unit " << unit << " burst " << bi;

            std::vector<BFloat16> c(steps * plan.bLen);
            std::vector<BFloat16> d(steps * plan.bLen);
            replay.fillParallel(bi, c.data(), c.size());
            gen.fillParallel(bi, d.data(), d.size());
            EXPECT_EQ(0, std::memcmp(c.data(), d.data(),
                                     c.size() * sizeof(BFloat16)))
                << "unit " << unit << " burst " << bi;
        }
    }
}

TEST(Supply, TraceBackedLayerOpParity)
{
    // A trace-backed layer op must reproduce the generator-backed
    // report exactly — cycles, stats, serial side.
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 24;
    cfg.convWeightBatch = 1;
    Accelerator accel(cfg);
    const CatalogModel &cm =
        workload::findWorkloadModel("Transformer-S");
    LoweredModel lm(cm, BatchGeometry{2, 32});
    workload::WorkloadSupply supply(lm, cfg, 0.5);

    for (size_t i = 0; i < lm.units().size(); ++i) {
        const auto &u = lm.units()[i];
        LayerOpReport plain = runAlone(
            SweepLayerJob{&accel, &lm.carrierOf(i), &u.shape, u.op, 0.5});
        LayerOpReport traced =
            runAlone(SweepLayerJob{&accel, &lm.carrierOf(i), &u.shape,
                                   u.op, 0.5, &supply.supplyOf(i)});
        EXPECT_EQ(plain.fprCycles, traced.fprCycles) << u.shape.name;
        EXPECT_EQ(plain.baseCycles, traced.baseCycles) << u.shape.name;
        EXPECT_EQ(plain.avgCyclesPerStep, traced.avgCyclesPerStep);
        EXPECT_EQ(plain.sampleStats.termsProcessed,
                  traced.sampleStats.termsProcessed);
        EXPECT_EQ(plain.serialSide, traced.serialSide);
        EXPECT_EQ(plain.trafficBytes, traced.trafficBytes);
    }
}

TEST(Supply, ContainerMatrixIngestsSlabs)
{
    // fillFromSlab loads row-major slab values into container order.
    ContainerMatrix mat(16, 24);
    std::vector<BFloat16> slab;
    for (int i = 0; i < 16 * 24; ++i)
        slab.push_back(BFloat16::fromFloat(static_cast<float>(i % 97) -
                                           48.0f));
    mat.fillFromSlab(slab.data(), slab.size());
    for (int r = 0; r < 16; ++r)
        for (int c = 0; c < 24; ++c)
            EXPECT_EQ(mat.raw(r, c).bits(),
                      slab[static_cast<size_t>(r) * 24 + c].bits());
}

/** Fingerprint of @p experiment at @p threads with tiny knobs. */
uint64_t
runFingerprint(const char *experiment, int threads)
{
    const api::ExperimentInfo *info =
        api::ExperimentRegistry::instance().find(experiment);
    EXPECT_NE(info, nullptr) << experiment;
    api::CliOptions opts;
    opts.sampleSteps = 6;
    opts.extras = {{"batch", "2"},
                   {"seq", "16"},
                   {"batches", "2,4"}};
    SimEngine engine(threads);
    return api::produceResult(*info, opts, &engine).fingerprint();
}

TEST(WorkloadExperiments, FingerprintsAreThreadInvariant)
{
    for (const char *id : {"ext_workload_catalog", "ext_conv_im2col",
                           "ext_batch_sweep"}) {
        const uint64_t serial = runFingerprint(id, 1);
        EXPECT_EQ(serial, runFingerprint(id, 2)) << id;
        EXPECT_EQ(serial, runFingerprint(id, 8)) << id;
    }
}

} // namespace
} // namespace fpraker
