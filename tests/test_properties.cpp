/**
 * @file
 * Cross-cutting property tests and contract (death) tests.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "accel/phase_runner.h"
#include "common/rng.h"
#include "numeric/reference.h"
#include "pe/baseline_pe.h"
#include "pe/fpraker_pe.h"
#include "tile/tile.h"
#include "trace/model_zoo.h"

namespace fpraker {
namespace {

std::vector<BFloat16>
randomValues(Rng &rng, size_t n, double sparsity = 0.2)
{
    std::vector<BFloat16> v(n);
    for (auto &x : v)
        x = rng.bernoulli(sparsity)
                ? BFloat16()
                : bf16(static_cast<float>(rng.gaussian(0.0, 2.0)));
    return v;
}

/**
 * Narrower accumulators can only shorten term streams: the OB
 * threshold tightens monotonically with the fraction width.
 */
class AccWidthMonotonicity : public ::testing::TestWithParam<int>
{
};

TEST_P(AccWidthMonotonicity, NarrowerAccumulatorNeverAddsCycles)
{
    int frac = GetParam();
    Rng rng(900 + frac);
    for (int trial = 0; trial < 30; ++trial) {
        MacPair pairs[8];
        for (int l = 0; l < 8; ++l) {
            auto v = randomValues(rng, 2, 0.2);
            pairs[l] = {v[0], v[1]};
        }
        PeConfig wide;
        PeConfig narrow;
        narrow.obThreshold = frac;
        FPRakerPe pe_w(wide), pe_n(narrow);
        EXPECT_LE(pe_n.processSet(pairs, 8), pe_w.processSet(pairs, 8))
            << "frac " << frac << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, AccWidthMonotonicity,
                         ::testing::Values(4, 6, 8, 10));

TEST(Properties, SparserSerialSideProcessesFewerTerms)
{
    // Adding zeros to the serial operand strictly removes terms. (It
    // does NOT always remove cycles: dropping a lane can move the
    // set's emax and regroup the remaining lanes' shift windows, so
    // the cycle count may wobble by a cycle — only the work is
    // monotone.)
    Rng rng(41);
    for (int trial = 0; trial < 30; ++trial) {
        auto a = randomValues(rng, 8, 0.0);
        auto b = randomValues(rng, 8, 0.0);
        MacPair dense[8], sparse[8];
        for (int l = 0; l < 8; ++l) {
            dense[l] = {a[static_cast<size_t>(l)],
                        b[static_cast<size_t>(l)]};
            sparse[l] = dense[l];
        }
        // Zero half the serial operands.
        for (int l = 0; l < 8; l += 2)
            sparse[l].a = BFloat16();
        FPRakerPe pe_d((PeConfig()));
        FPRakerPe pe_s((PeConfig()));
        int c_dense = pe_d.processSet(dense, 8);
        int c_sparse = pe_s.processSet(sparse, 8);
        EXPECT_LE(pe_s.stats().termsProcessed,
                  pe_d.stats().termsProcessed);
        EXPECT_LE(c_sparse, c_dense + 1);
    }
}

TEST(Properties, ChunkFlushTimingDoesNotChangeTotals)
{
    // Flushing a chunk early must give the same running total as
    // letting tickMacs do it.
    Rng rng(43);
    auto a = randomValues(rng, 64, 0.1);
    auto b = randomValues(rng, 64, 0.1);
    AccumulatorConfig cfg;
    cfg.chunkSize = 32;
    ChunkedAccumulator lazy(cfg), eager(cfg);
    for (size_t i = 0; i < 64; ++i) {
        lazy.addProduct(a[i], b[i]);
        eager.addProduct(a[i], b[i]);
        if (i == 40)
            eager.flushChunk();
    }
    // Values differ only by rounding order of the explicit flush.
    EXPECT_NEAR(lazy.total(), eager.total(),
                1e-3f * (std::fabs(lazy.total()) + 1.0f));
}

TEST(Properties, PeProcessesLongStreamsWithoutStateLeak)
{
    // Stats and accumulator state stay coherent across thousands of
    // sets (regression guard for cursor/flag leaks between sets).
    Rng rng(44);
    FPRakerPe pe((PeConfig()));
    uint64_t last_sets = 0;
    for (int round = 0; round < 20; ++round) {
        auto a = randomValues(rng, 80, 0.3);
        auto b = randomValues(rng, 80, 0.3);
        pe.dot(a, b);
        EXPECT_EQ(pe.stats().sets, last_sets + 10);
        last_sets = pe.stats().sets;
        EXPECT_EQ(pe.stats().laneCycles(),
                  8 * pe.stats().setCycles);
        pe.reset();
    }
}

TEST(Properties, PhaseRunnerIsDeterministic)
{
    const ModelInfo &model = findModel("SNLI");
    PhaseRunConfig cfg;
    cfg.sampleSteps = 24;
    PhaseRunResult r1 = runPhaseSample(model, model.layers[0],
                                       TrainingOp::Forward, 0.5, cfg);
    PhaseRunResult r2 = runPhaseSample(model, model.layers[0],
                                       TrainingOp::Forward, 0.5, cfg);
    EXPECT_EQ(r1.avgCyclesPerStep, r2.avgCyclesPerStep);
    EXPECT_EQ(r1.peStats.laneUseful, r2.peStats.laneUseful);
    EXPECT_EQ(r1.peStats.termsObSkipped, r2.peStats.termsObSkipped);
}

TEST(Properties, DegenerateTileGeometriesWork)
{
    Rng rng(45);
    for (auto [rows, cols] : {std::pair<int, int>{1, 1}, {1, 8}, {8, 1}}) {
        TileConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        Tile tile(cfg);
        std::vector<TileStep> steps(4);
        for (auto &s : steps) {
            s.a = randomValues(rng, static_cast<size_t>(cols) * 8, 0.2);
            s.b = randomValues(rng, static_cast<size_t>(rows) * 8, 0.2);
        }
        TileRunResult res = tile.run(steps);
        EXPECT_GE(res.cycles, 4u);
        PeStats agg = tile.aggregateStats();
        EXPECT_EQ(agg.laneCycles(), agg.setCycles * 8u);
    }
}

TEST(Properties, BaselineCyclesIndependentOfValues)
{
    // The defining property of the bit-parallel baseline: its timing
    // never depends on the data.
    Rng rng(46);
    BaselinePe pe;
    auto zeros = std::vector<BFloat16>(64);
    auto dense = randomValues(rng, 64, 0.0);
    EXPECT_EQ(pe.dot(zeros, zeros), 8);
    EXPECT_EQ(pe.dot(dense, dense), 8);
}

#if GTEST_HAS_DEATH_TEST

TEST(Contracts, AccumulatorRejectsNonFinite)
{
    ExtendedAccumulator acc;
    BFloat16 inf = BFloat16::fromBits(0x7f80);
    EXPECT_DEATH(acc.addProduct(inf, bf16(1.0f)), "non-finite");
}

TEST(Contracts, PeRejectsWrongArity)
{
    FPRakerPe pe((PeConfig()));
    MacPair pairs[4] = {};
    EXPECT_DEATH(pe.processSet(pairs, 4), "arity");
}

TEST(Contracts, TileRejectsMalformedSteps)
{
    TileConfig cfg;
    Tile tile(cfg);
    std::vector<TileStep> steps(1);
    steps[0].a.resize(3); // wrong arity
    steps[0].b.resize(static_cast<size_t>(cfg.rows) * 8);
    EXPECT_DEATH(tile.run(steps), "expected");
}

TEST(Contracts, TileRejectsMoreThan64Columns)
{
    TileConfig cfg;
    cfg.cols = 65; // one past the phase-A busy mask
    EXPECT_DEATH(Tile tile(cfg), "64-column");
}

TEST(Contracts, EncoderRejectsDenormalSignificand)
{
    TermEncoder enc;
    EXPECT_DEATH(enc.encodeSignificand(0x40), "normalized");
}

#endif // GTEST_HAS_DEATH_TEST

} // namespace
} // namespace fpraker
