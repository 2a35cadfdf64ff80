/**
 * @file
 * Tests for the sweep scheduler: SweepRunner's job fan-out must agree
 * with each job run alone on a serial engine, reports must be
 * bit-identical at any thread count (the per-worker RNG substream
 * contract), and the substream derivation itself must be stable and
 * collision-free over the index ranges the simulator uses. A sweep's phase groups must
 * return what each job returns alone while filling each shared
 * operand slab once.
 */

#include <cstring>
#include <deque>
#include <set>

#include <gtest/gtest.h>

#include "accel/phase_runner.h"
#include "common/fnv.h"
#include "obs/metrics.h"
#include "sim/sweep_runner.h"
#include "trace/model_zoo.h"
#include "trace/rng_stream.h"
#include "workload/supply.h"

namespace fpraker {
namespace {

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 24;
    return cfg;
}

uint64_t
reportFingerprint(const ModelRunReport &r)
{
    Fnv64 h;
    h.addRaw(r.fprCycles);
    h.addRaw(r.baseCycles);
    h.addRaw(r.fprEnergy.totalPj());
    h.addRaw(r.baseEnergy.totalPj());
    for (const LayerOpReport &op : r.ops) {
        h.addRaw(op.fprCycles);
        h.addRaw(op.avgCyclesPerStep);
        h.addRaw(static_cast<double>(op.sampleStats.setCycles));
        h.addRaw(static_cast<double>(op.sampleStats.termsObSkipped));
    }
    return h.value();
}

/** @p job run alone: a one-job sweep on a serial engine. */
LayerOpReport
runAlone(const SweepLayerJob &job)
{
    SimEngine serial(1);
    return SweepRunner(serial).runLayerOps({job}).front();
}

TEST(RngStream, SubstreamSeedsAreStableAndDistinct)
{
    EXPECT_EQ(substreamSeed(42, 7), substreamSeed(42, 7));
    std::set<uint64_t> seen;
    for (uint64_t base : {0ull, 1ull, 0xf9a4e5ull})
        for (uint64_t i = 0; i < 512; ++i)
            seen.insert(substreamSeed(base, i));
    EXPECT_EQ(seen.size(), 3u * 512u);
}

TEST(SweepRunner, AgreesWithSerialModelRuns)
{
    // The sweep fan-out must reproduce, bit for bit, what each model
    // run alone on a serial engine produces: same units, same seeds,
    // same reduction order.
    const ModelInfo &m0 = findModel("SNLI");
    const ModelInfo &m1 = findModel("NCF");

    SimEngine serial(1);
    SweepRunner alone(serial);
    const Accelerator serial_accel(smallConfig());
    uint64_t want0 = reportFingerprint(
        alone.runModels({SweepJob{&serial_accel, &m0, 0.5}}).front());
    uint64_t want1 = reportFingerprint(
        alone.runModels({SweepJob{&serial_accel, &m1, 0.25}}).front());

    SimEngine engine(4);
    const Accelerator accel(smallConfig());
    std::vector<ModelRunReport> reports = SweepRunner(engine).runModels(
        {SweepJob{&accel, &m0, 0.5}, SweepJob{&accel, &m1, 0.25}});
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reportFingerprint(reports[0]), want0);
    EXPECT_EQ(reportFingerprint(reports[1]), want1);
}

TEST(SweepRunner, SweepIsBitIdenticalAcrossThreadCounts)
{
    // The per-worker RNG substream contract: a sweep's combined
    // fingerprint is a function of its jobs, never of the worker count
    // that executed them.
    const ModelInfo &m0 = findModel("SNLI");
    const ModelInfo &m1 = findModel("ResNet18-Q");

    uint64_t fingerprints[3];
    int idx = 0;
    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        const Accelerator accel(smallConfig());
        std::vector<ModelRunReport> reports =
            SweepRunner(engine).runModels(
                {SweepJob{&accel, &m0, 0.5}, SweepJob{&accel, &m1, 0.5},
                 SweepJob{&accel, &m0, 1.0}});
        Fnv64 h;
        for (const ModelRunReport &r : reports)
            h.addRaw(reportFingerprint(r));
        fingerprints[idx++] = h.value();
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
    EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

TEST(SweepRunner, LayerJobsMatchTheJobRunAlone)
{
    const ModelInfo &model = findModel("SqueezeNet 1.1");
    const Accelerator serial_accel(smallConfig());
    LayerOpReport want =
        runAlone(SweepLayerJob{&serial_accel, &model, &model.layers.front(),
                               TrainingOp::InputGrad, 0.5});

    SimEngine engine(2);
    const Accelerator accel(smallConfig());
    std::vector<LayerOpReport> got = SweepRunner(engine).runLayerOps(
        {SweepLayerJob{&accel, &model, &model.layers.front(),
                       TrainingOp::InputGrad, 0.5}});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].fprCycles, want.fprCycles);
    EXPECT_EQ(got[0].baseCycles, want.baseCycles);
    EXPECT_EQ(got[0].avgCyclesPerStep, want.avgCyclesPerStep);
    EXPECT_EQ(got[0].sampleStats.setCycles, want.sampleStats.setCycles);
}

TEST(PhaseRunner, BurstShardingIsBitIdenticalAcrossThreadCounts)
{
    // Bursts seed their generators from substreamSeed(base, burst), so
    // sharding a phase sample's bursts cannot change what any burst
    // simulates.
    const ModelInfo &model = findModel("VGG16");
    double cycles[3];
    uint64_t useful[3];
    int idx = 0;
    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        PhaseRunConfig prc;
        prc.tile = AcceleratorConfig::paperDefault().tile;
        prc.sampleSteps = 96; // several bursts
        prc.engine = &engine;
        PhaseRunResult r = runPhaseSample(
            model, model.layers.front(), TrainingOp::Forward, 0.5, prc);
        cycles[idx] = r.avgCyclesPerStep;
        useful[idx] = r.peStats.laneUseful;
        ++idx;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(cycles[0], cycles[2]);
    EXPECT_EQ(useful[0], useful[1]);
    EXPECT_EQ(useful[0], useful[2]);
}

/** Every numeric field of a layer-op report, in declaration order. */
std::vector<double>
reportFields(const LayerOpReport &r)
{
    const ScaledPeActivity &a = r.activity;
    const PeStats &s = r.sampleStats;
    std::vector<double> v = {
        static_cast<double>(r.macs), static_cast<double>(r.tileSteps),
        r.fprComputeCycles, r.fprMemCycles, r.fprCycles,
        r.baseComputeCycles, r.baseMemCycles, r.baseCycles,
        static_cast<double>(r.serialSide), r.avgCyclesPerStep,
        r.trafficBytes, r.trafficBytesCompressed,
        a.laneUseful, a.laneNoTerm, a.laneShiftRange, a.laneInterPe,
        a.laneExponent, a.termsProcessed, a.termsZeroSkipped,
        a.termsObSkipped, a.macs};
    for (uint64_t c :
         {s.laneUseful, s.laneNoTerm, s.laneShiftRange, s.laneExponent,
          s.laneInterPe, s.setCycles, s.sets, s.macs, s.termsProcessed,
          s.termsZeroSkipped, s.termsObSkipped})
        v.push_back(static_cast<double>(c));
    for (const EnergyReport *e : {&r.fprEnergy, &r.baseEnergy})
        for (double pj : {e->core.computePj, e->core.controlPj,
                          e->core.accumulationPj, e->sramPj, e->dramPj})
            v.push_back(pj);
    return v;
}

void
expectSameReport(const LayerOpReport &got, const LayerOpReport &want,
                 const std::string &what)
{
    EXPECT_EQ(got.layerName, want.layerName) << what;
    EXPECT_EQ(got.op, want.op) << what;
    EXPECT_EQ(reportFields(got), reportFields(want)) << what;
}

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counter(name, "").value();
}

/**
 * Variants that share operand slabs in different ways: three shifter
 * windows and raw-bit terms on one geometry (both slabs shared), 4
 * tile rows (the serial slab shared, the parallel one not), a variant
 * whose tile context equals the default's (served whole), and three
 * that differ from the default only in timing (retimed from its tile
 * run).
 */
std::vector<std::pair<std::string, AcceleratorConfig>>
mixedVariants(bool memoize)
{
    AcceleratorConfig base = AcceleratorConfig::paperDefault();
    base.sampleSteps = 40; // a full and a short burst on most layers
    base.memoize = memoize;
    std::vector<std::pair<std::string, AcceleratorConfig>> out;
    for (int delta : {0, 3, 1 << 20}) {
        AcceleratorConfig cfg = base;
        cfg.tile.pe.maxDelta = delta;
        out.emplace_back("delta-" + std::to_string(delta), cfg);
    }
    AcceleratorConfig raw = base;
    raw.tile.pe.encoding = TermEncoding::RawBits;
    out.emplace_back("raw", raw);
    AcceleratorConfig rows = base;
    rows.tile.rows = 4;
    out.emplace_back("rows-4", rows);
    AcceleratorConfig no_bdc = base;
    no_bdc.useBdc = false;
    out.emplace_back("no-bdc", no_bdc);
    for (auto [depth, floor] : {std::pair{2, 2}, {1, 1}, {4, 4}}) {
        AcceleratorConfig cfg = base;
        cfg.tile.bufferDepth = depth;
        cfg.tile.pe.exponentFloor = floor;
        out.emplace_back("depth-" + std::to_string(depth) + "-floor-" +
                             std::to_string(floor),
                         cfg);
    }
    return out;
}

TEST(SweepGroups, MatchEachJobRunAlone)
{
    // A constant-profile model and one whose profiles move between
    // knots, at two progress points each, on every mixed variant.
    const std::pair<const char *, double> points[] = {
        {"NCF", 0.1}, {"NCF", 0.5}, {"ResNet18-Q", 0.1},
        {"ResNet18-Q", 0.5}};

    // References: every (layer, op) of every job, run alone on a
    // standalone unmemoized accelerator.
    std::deque<Accelerator> alone;
    std::vector<std::vector<LayerOpReport>> want;
    for (const auto &[name, cfg] : mixedVariants(false)) {
        const Accelerator &accel = alone.emplace_back(cfg);
        for (const auto &[model_name, progress] : points) {
            const ModelInfo &model = findModel(model_name);
            want.emplace_back();
            for (const LayerOpUnit &u : Accelerator::modelUnits(model))
                want.back().push_back(runAlone(
                    SweepLayerJob{&accel, &model, u.layer, u.op, progress}));
        }
    }

    // A trace-backed group: the 8-row variants replay one captured
    // trace of a ResNet18-Q layer.
    const ModelInfo &traced_model = findModel("ResNet18-Q");
    const LayerShape &traced_layer = traced_model.layers[3];
    const workload::PhaseTrace trace = workload::PhaseTrace::capture(
        planPhaseSample(traced_model, traced_layer, TrainingOp::WeightGrad,
                        0.1, alone.front().phaseConfig()));
    const workload::TraceSlabSupply supply(trace);
    std::vector<LayerOpReport> want_traced;
    for (const Accelerator &accel : alone)
        if (accel.config().tile.rows == 8)
            want_traced.push_back(runAlone(
                SweepLayerJob{&accel, &traced_model, &traced_layer,
                              TrainingOp::WeightGrad, 0.1, &supply}));

    for (bool memoize : {true, false}) {
        for (int threads : {1, 2, 8}) {
            const std::string run = " memo=" + std::to_string(memoize) +
                                    " t=" + std::to_string(threads);
            SimEngine engine(threads);
            SweepRunner runner(engine);
            std::deque<Accelerator> accels;
            std::vector<SweepJob> jobs;
            std::vector<SweepLayerJob> traced_jobs;
            for (const auto &[name, cfg] : mixedVariants(memoize)) {
                const Accelerator &accel = accels.emplace_back(cfg);
                for (const auto &[model_name, progress] : points)
                    jobs.push_back(
                        SweepJob{&accel, &findModel(model_name), progress});
                if (cfg.tile.rows == 8)
                    traced_jobs.push_back(SweepLayerJob{
                        &accel, &traced_model, &traced_layer,
                        TrainingOp::WeightGrad, 0.1, &supply});
            }

            std::vector<ModelRunReport> got = runner.runModels(jobs);
            ASSERT_EQ(got.size(), want.size());
            for (size_t j = 0; j < got.size(); ++j) {
                ASSERT_EQ(got[j].ops.size(), want[j].size());
                for (size_t u = 0; u < want[j].size(); ++u)
                    expectSameReport(got[j].ops[u], want[j][u],
                                     "job " + std::to_string(j) + " op " +
                                         std::to_string(u) + run);
            }

            std::vector<LayerOpReport> got_traced =
                runner.runLayerOps(traced_jobs);
            ASSERT_EQ(got_traced.size(), want_traced.size());
            for (size_t k = 0; k < got_traced.size(); ++k)
                expectSameReport(got_traced[k], want_traced[k],
                                 "traced " + std::to_string(k) + run);
        }
    }
}

TEST(SweepGroups, WindowVariantsShareEverySlab)
{
    // Three windows on one geometry, unmemoized: every burst fills
    // its two slabs once, and the other two machines read both.
    AcceleratorConfig base = AcceleratorConfig::paperDefault();
    base.sampleSteps = 40;
    base.memoize = false;
    std::deque<Accelerator> accels;
    std::vector<SweepJob> jobs;
    for (int delta : {0, 3, 7}) {
        AcceleratorConfig cfg = base;
        cfg.tile.pe.maxDelta = delta;
        jobs.push_back(
            SweepJob{&accels.emplace_back(cfg), &findModel("NCF"), 0.5});
    }

    const uint64_t filled0 = counterValue("phase.slabs_filled");
    const uint64_t shared0 = counterValue("phase.slabs_shared");
    SimEngine engine(2);
    SweepRunner(engine).runModels(jobs);
    const uint64_t filled = counterValue("phase.slabs_filled") - filled0;
    const uint64_t shared = counterValue("phase.slabs_shared") - shared0;
    EXPECT_GT(filled, 0u);
    EXPECT_EQ(shared, 2 * filled);
}

TEST(SweepGroups, TimingVariantsRetimeOneTileRun)
{
    // Three buffer depths of one NCF sweep, unmemoized: each burst runs
    // one tile, and the other two depths are retimed from it, so they
    // add no simulated steps.
    AcceleratorConfig base = AcceleratorConfig::paperDefault();
    base.sampleSteps = 40;
    base.memoize = false;
    const ModelInfo &model = findModel("NCF");
    std::deque<Accelerator> accels;
    std::vector<SweepJob> jobs;
    for (int depth : {1, 2, 4}) {
        AcceleratorConfig cfg = base;
        cfg.tile.bufferDepth = depth;
        jobs.push_back(SweepJob{&accels.emplace_back(cfg), &model, 0.5});
    }
    uint64_t bursts = 0, steps = 0;
    for (const LayerOpUnit &u : Accelerator::modelUnits(model)) {
        const PhasePlan plan = planPhaseSample(
            model, *u.layer, u.op, 0.5, accels.front().phaseConfig());
        bursts += plan.bursts;
        steps += static_cast<uint64_t>(plan.sampleSteps);
    }

    const uint64_t replayed0 = counterValue("phase.bursts_replayed");
    const uint64_t steps0 = counterValue("phase.steps");
    SimEngine engine(2);
    SweepRunner(engine).runModels(jobs);
    EXPECT_GT(bursts, 0u);
    EXPECT_EQ(counterValue("phase.bursts_replayed") - replayed0,
              2 * bursts);
    EXPECT_EQ(counterValue("phase.steps") - steps0, steps);
}

TEST(SweepGroups, BdcAnalysesRunOncePerDistinctSample)
{
    // A sweep analyzes each distinct BDC sample once, even on four
    // threads, however many variants and progress points read it (the
    // 4-row variant and the constant-profile model's progress points
    // repeat samples); a second sweep analyzes none. A seed no other
    // test uses keeps the process-wide footprint table cold for these
    // samples.
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 8;
    cfg.seed = 0xbdc5eed;
    AcceleratorConfig rows = cfg;
    rows.tile.rows = 4;
    const Accelerator square(cfg), short_cols(rows);

    std::vector<SweepJob> jobs;
    std::set<BdcSample::Key> keys;
    size_t reads = 0;
    for (const Accelerator *accel : {&square, &short_cols})
        for (const char *name : {"NCF", "ResNet18-Q"})
            for (double progress : {0.1, 0.5, 0.9}) {
                const ModelInfo &model = findModel(name);
                jobs.push_back(SweepJob{accel, &model, progress});
                for (const BdcSample &sample :
                     accel->bdcSamples(model, progress)) {
                    keys.insert(sample.key());
                    ++reads;
                }
            }
    ASSERT_LT(keys.size(), reads);

    const uint64_t before = counterValue("accel.bdc_analyses");
    SimEngine engine(4);
    SweepRunner(engine).runModels(jobs);
    EXPECT_EQ(counterValue("accel.bdc_analyses") - before, keys.size());
    SweepRunner(engine).runModels(jobs);
    EXPECT_EQ(counterValue("accel.bdc_analyses") - before, keys.size());
}

TEST(SweepGroups, IdenticalTileContextsInsertEachBurstOnce)
{
    // Two variants that differ only off the tile (base-delta
    // compression, like fig11's zero and zero+bdc) form one machine
    // per burst: its result is inserted once and serves the other
    // variant without a memo lookup. A seed no other test uses keeps
    // the process-wide memo cold for these bursts.
    SimMemo *memo = SimMemo::global();
    if (!memo)
        GTEST_SKIP() << "the burst memo is off (FPRAKER_MEMO)";
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 40;
    cfg.seed = 0x5eed5a4e;
    AcceleratorConfig no_bdc = cfg;
    no_bdc.useBdc = false;

    const Accelerator with(cfg), without(no_bdc);
    const ModelInfo &model = findModel("NCF");
    uint64_t bursts = 0;
    for (const LayerOpUnit &u : Accelerator::modelUnits(model))
        bursts += planPhaseSample(model, *u.layer, u.op, 0.5,
                                  with.phaseConfig())
                      .bursts;

    const SimMemo::Stats before = memo->stats();
    SimEngine engine(2);
    std::vector<ModelRunReport> reports = SweepRunner(engine).runModels(
        {SweepJob{&with, &model, 0.5}, SweepJob{&without, &model, 0.5}});
    const SimMemo::Stats after = memo->stats();
    EXPECT_EQ(after.insertions - before.insertions, bursts);
    EXPECT_EQ(after.misses - before.misses, bursts);
    EXPECT_EQ(after.hits - before.hits, 0u);
    ASSERT_EQ(reports.size(), 2u);
    for (size_t u = 0; u < reports[0].ops.size(); ++u)
        EXPECT_EQ(reports[0].ops[u].avgCyclesPerStep,
                  reports[1].ops[u].avgCyclesPerStep);
}

TEST(SweepRunner, ParallelForCoversOrderedSlots)
{
    SimEngine engine(4);
    SweepRunner runner(engine);
    std::vector<int> slots(57, 0);
    runner.parallelFor(slots.size(),
                       [&](size_t i) { slots[i] = static_cast<int>(i); });
    for (size_t i = 0; i < slots.size(); ++i)
        EXPECT_EQ(slots[i], static_cast<int>(i));
}

} // namespace
} // namespace fpraker
