/**
 * @file
 * Fast-data-path coverage: the slab kernels against the encoder and
 * the bfloat16 field accessors, the batched TensorGenerator fill
 * against the value-at-a-time walk, and pooled tile scratch against
 * fresh construction (at several thread counts). Everything here is a
 * bit-identity contract — no tolerances.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "accel/phase_runner.h"
#include "common/rng.h"
#include "numeric/slab_ops.h"
#include "numeric/term_encoder.h"
#include "numeric/term_lut.h"
#include "sim/sim_engine.h"
#include "sim/tile_pool.h"
#include "tile/tile.h"
#include "trace/model_zoo.h"
#include "trace/tensor_gen.h"

namespace fpraker {
namespace {

BFloat16
randomFinite(Rng &rng, double zero_p)
{
    if (rng.bernoulli(zero_p))
        return BFloat16();
    for (;;) {
        BFloat16 v =
            BFloat16::fromBits(static_cast<uint16_t>(rng.next()));
        if (v.isFinite() && !v.isZero())
            return v;
    }
}

TEST(SlabOps, CountTermsMatchesEncoderOnEveryBitPattern)
{
    // Every bf16 bit pattern in one slab, under both encodings, against
    // the encoder itself; the kernel adds to the counts it is handed.
    std::vector<BFloat16> all(1u << 16);
    for (size_t bits = 0; bits < all.size(); ++bits)
        all[bits] = BFloat16::fromBits(static_cast<uint16_t>(bits));
    for (TermEncoding enc :
         {TermEncoding::Canonical, TermEncoding::RawBits}) {
        const TermEncoder encoder(enc);
        uint64_t z_ref = 7, t_ref = 9, z = 7, t = 9;
        for (BFloat16 v : all) {
            if (v.isZero())
                ++z_ref;
            else
                t_ref += encoder.encode(v).size();
        }
        slab::countTerms(all.data(), all.size(),
                         TermLut::of(enc).countsTable(), &z, &t);
        EXPECT_EQ(z_ref, z);
        EXPECT_EQ(t_ref, t);
    }
}

TEST(SlabOps, PackBf16AssemblesFieldPlanes)
{
    Rng rng(0xbeef);
    for (size_t n : {size_t(1), size_t(8), size_t(17), size_t(333)}) {
        std::vector<int16_t> exp(n);
        std::vector<uint8_t> man(n), neg(n);
        for (size_t i = 0; i < n; ++i) {
            bool zero = rng.bernoulli(0.3);
            // Full-width planes: the kernel masks exponent and mantissa
            // to their fields.
            exp[i] = zero ? 0 : static_cast<int16_t>(rng.next());
            man[i] = zero ? 0 : static_cast<uint8_t>(rng.next());
            neg[i] = zero ? 0 : static_cast<uint8_t>(rng.next() & 1);
        }
        std::vector<BFloat16> got(n);
        slab::packBf16(exp.data(), man.data(), neg.data(), n,
                       got.data());
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(neg[i] != 0, got[i].isNegative()) << "i=" << i;
            ASSERT_EQ(exp[i] & 0xff, got[i].biasedExponent())
                << "i=" << i;
            ASSERT_EQ(man[i] & 0x7f, got[i].mantissa()) << "i=" << i;
        }
    }
}

TEST(TensorGen, BatchedFillMatchesScalarWalk)
{
    // Every zoo profile x progress x tensor kind, several seeds: the
    // batched slab path must reproduce the reference walk bit for bit.
    for (const ModelInfo &m : modelZoo()) {
        for (double progress : {0.05, 0.5, 0.95}) {
            for (TensorKind kind :
                 {TensorKind::Activation, TensorKind::Weight,
                  TensorKind::Gradient}) {
                ValueProfile p = m.profile.of(kind).at(progress);
                for (uint64_t seed : {1ull, 0xfeedull}) {
                    TensorGenerator ref(p, seed);
                    TensorGenerator batched(p, seed);
                    std::vector<BFloat16> a(777), b(777);
                    ref.fillScalar(a.data(), a.size());
                    batched.fill(b.data(), b.size());
                    ASSERT_EQ(0,
                              std::memcmp(a.data(), b.data(),
                                          a.size() * sizeof(BFloat16)))
                        << m.name << " progress=" << progress;
                }
            }
        }
    }
}

TEST(TensorGen, BatchedFillCarriesStateAcrossCalls)
{
    // Interleaved partial fills must continue the same stream.
    ValueProfile p =
        modelZoo().front().profile.of(TensorKind::Activation).at(0.5);
    TensorGenerator ref(p, 99);
    TensorGenerator split(p, 99);
    std::vector<BFloat16> a(600), b(600);
    ref.fillScalar(a.data(), a.size());
    split.fill(b.data(), 1);
    split.fill(b.data() + 1, 7);
    split.fill(b.data() + 8, 250);
    split.fill(b.data() + 258, 342);
    ASSERT_EQ(0,
              std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(BFloat16)));
}

TEST(SlabOps, MeasureTensorUsesLutCounts)
{
    // measureTensor (now slab-backed) vs a hand loop over the LUT.
    Rng rng(0x77);
    std::vector<BFloat16> v(513);
    for (auto &x : v)
        x = randomFinite(rng, 0.4);
    TensorStats s = measureTensor(v);
    const TermLut &lut = TermLut::of(TermEncoding::Canonical);
    uint64_t zeros = 0, terms = 0;
    for (BFloat16 x : v) {
        if (x.isZero())
            ++zeros;
        else
            terms += static_cast<uint64_t>(
                lut.countTerms(x.significand()));
    }
    EXPECT_EQ(v.size(), s.values);
    EXPECT_EQ(zeros, s.zeros);
    EXPECT_EQ(terms, s.terms);
}

void
expectStatsEq(const PeStats &a, const PeStats &b, const char *what)
{
    EXPECT_EQ(a.laneUseful, b.laneUseful) << what;
    EXPECT_EQ(a.laneNoTerm, b.laneNoTerm) << what;
    EXPECT_EQ(a.laneShiftRange, b.laneShiftRange) << what;
    EXPECT_EQ(a.laneInterPe, b.laneInterPe) << what;
    EXPECT_EQ(a.laneExponent, b.laneExponent) << what;
    EXPECT_EQ(a.setCycles, b.setCycles) << what;
    EXPECT_EQ(a.sets, b.sets) << what;
    EXPECT_EQ(a.macs, b.macs) << what;
    EXPECT_EQ(a.termsProcessed, b.termsProcessed) << what;
    EXPECT_EQ(a.termsZeroSkipped, b.termsZeroSkipped) << what;
    EXPECT_EQ(a.termsObSkipped, b.termsObSkipped) << what;
}

TEST(TilePool, PooledPhaseRunsBitIdenticalAcrossThreadCounts)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    const LayerShape &layer = model.layers.front();

    PhaseRunConfig base;
    base.tile = TileConfig{};
    base.sampleSteps = 96;
    base.stepsPerOutput = 16;
    base.seed = 42; // No memo: every burst leases a pooled tile.

    // Reference: no pool, serial.
    PhaseRunResult ref = runPhaseSample(model, layer,
                                        TrainingOp::Forward, 0.5, base);

    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        TilePool pool(base.tile);
        PhaseRunConfig cfg = base;
        cfg.engine = &engine;
        cfg.pool = &pool;
        // Two passes through the same pool so the second run reuses
        // leased scratch rather than building fresh.
        for (int pass = 0; pass < 2; ++pass) {
            PhaseRunResult got = runPhaseSample(
                model, layer, TrainingOp::Forward, 0.5, cfg);
            EXPECT_DOUBLE_EQ(ref.avgCyclesPerStep,
                             got.avgCyclesPerStep)
                << threads << " threads, pass " << pass;
            EXPECT_EQ(ref.steps, got.steps);
            expectStatsEq(ref.peStats, got.peStats, "pe stats");
            EXPECT_EQ(ref.serialStats.zeros, got.serialStats.zeros);
            EXPECT_EQ(ref.serialStats.terms, got.serialStats.terms);
            EXPECT_EQ(ref.parallelStats.zeros,
                      got.parallelStats.zeros);
            EXPECT_EQ(ref.parallelStats.terms,
                      got.parallelStats.terms);
        }
        EXPECT_GT(pool.built(), 0u);
        EXPECT_EQ(pool.built(), pool.idle()); // all leases returned
        // Reuse must have happened: two passes of many bursts built
        // no more scratches than the engine could run concurrently.
        EXPECT_LE(pool.built(),
                  static_cast<size_t>(engine.threads()) * 2);
    }
}

TEST(TilePool, ReusedTileMatchesFresh)
{
    TileConfig cfg;
    TilePool pool(cfg);
    const int lanes = cfg.pe.lanes;

    ValueProfile p =
        findModel("ResNet18-Q").profile.of(TensorKind::Weight).at(0.5);
    auto make_steps = [&](uint64_t seed) {
        TensorGenerator gen(p, seed);
        std::vector<TileStep> steps(12);
        for (auto &s : steps) {
            s.a = gen.generate(static_cast<size_t>(cfg.cols) * lanes);
            s.b = gen.generate(static_cast<size_t>(cfg.rows) * lanes);
        }
        return steps;
    };

    // Dirty the pooled tile with one workload, return it, then run a
    // second workload on the reused tile and on a fresh tile.
    std::vector<TileStep> first = make_steps(7);
    std::vector<TileStep> second = make_steps(8);
    {
        TilePool::Lease lease = pool.acquire();
        lease->tile.run(first);
    }
    ASSERT_EQ(1u, pool.built());

    Tile fresh(cfg);
    TileRunResult want = fresh.run(second);
    TilePool::Lease lease = pool.acquire();
    ASSERT_EQ(1u, pool.built()); // reused, not rebuilt
    TileRunResult got = lease->tile.run(second);

    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.steps, got.steps);
    expectStatsEq(fresh.aggregateStats(), lease->tile.aggregateStats(),
                  "tile stats");
    for (int r = 0; r < cfg.rows; ++r)
        for (int c = 0; c < cfg.cols; ++c)
            EXPECT_EQ(fresh.output(r, c), lease->tile.output(r, c));
}

} // namespace
} // namespace fpraker
