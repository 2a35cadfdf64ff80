/**
 * @file
 * Tests for the FPRaker and baseline tile models.
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "numeric/reference.h"
#include "tile/tile.h"

namespace fpraker {
namespace {

std::vector<BFloat16>
randomValues(Rng &rng, size_t n, double sparsity, double exp_sigma)
{
    std::vector<BFloat16> v(n);
    for (auto &x : v) {
        if (rng.bernoulli(sparsity)) {
            x = BFloat16();
            continue;
        }
        double mag = std::exp2(rng.gaussian(0.0, exp_sigma)) *
                     rng.uniform(1.0, 2.0);
        x = bf16(static_cast<float>(rng.bernoulli(0.5) ? -mag : mag));
    }
    return v;
}

std::vector<TileStep>
randomSteps(Rng &rng, const TileConfig &cfg, int n, double sparsity = 0.2,
            double exp_sigma = 1.5)
{
    std::vector<TileStep> steps(static_cast<size_t>(n));
    for (auto &s : steps) {
        s.a = randomValues(
            rng, static_cast<size_t>(cfg.cols) * cfg.pe.lanes, sparsity,
            exp_sigma);
        s.b = randomValues(
            rng, static_cast<size_t>(cfg.rows) * cfg.pe.lanes, sparsity,
            exp_sigma);
    }
    return steps;
}

/** Golden output for PE (r, c): sum over steps of dot8(A_c, B_r). */
double
goldenOutput(const std::vector<TileStep> &steps, const TileConfig &cfg,
             int r, int c)
{
    double sum = 0.0;
    for (const auto &s : steps)
        for (int l = 0; l < cfg.pe.lanes; ++l)
            sum += static_cast<double>(
                       s.a[static_cast<size_t>(c) * cfg.pe.lanes + l]
                           .toFloat()) *
                   static_cast<double>(
                       s.b[static_cast<size_t>(r) * cfg.pe.lanes + l]
                           .toFloat());
    return sum;
}

TEST(Tile, OutputsMatchGolden)
{
    Rng rng(101);
    TileConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    Tile tile(cfg);
    auto steps = randomSteps(rng, cfg, 6);
    TileRunResult res = tile.run(steps);
    EXPECT_EQ(res.steps, 6u);
    EXPECT_GE(res.cycles, 6u);

    double tol_base = accumulationTolerance(cfg.pe.acc, 64);
    for (int r = 0; r < cfg.rows; ++r) {
        for (int c = 0; c < cfg.cols; ++c) {
            double ref = goldenOutput(steps, cfg, r, c);
            EXPECT_NEAR(tile.output(r, c), ref,
                        tol_base * (std::fabs(ref) + 64.0))
                << "PE (" << r << "," << c << ")";
        }
    }
}

TEST(Tile, AgreesWithBaselineTileFunctionally)
{
    Rng rng(102);
    TileConfig cfg;
    cfg.rows = 2;
    cfg.cols = 3;
    Tile fpr(cfg);
    BaselineTile base(cfg);
    auto steps = randomSteps(rng, cfg, 8);
    fpr.run(steps);
    base.run(steps);
    double tol = accumulationTolerance(cfg.pe.acc, 64);
    for (int r = 0; r < cfg.rows; ++r)
        for (int c = 0; c < cfg.cols; ++c)
            EXPECT_NEAR(fpr.output(r, c), base.output(r, c),
                        tol * (std::fabs(base.output(r, c)) + 64.0));
}

TEST(BaselineTile, OneCyclePerStep)
{
    Rng rng(103);
    TileConfig cfg;
    BaselineTile tile(cfg);
    auto steps = randomSteps(rng, cfg, 17);
    TileRunResult res = tile.run(steps);
    EXPECT_EQ(res.cycles, 17u);
    EXPECT_EQ(res.macs, 17u * 512u);
}

TEST(Tile, DeeperBuffersNeverHurt)
{
    Rng rng(104);
    TileConfig shallow;
    shallow.bufferDepth = 1;
    TileConfig deep = shallow;
    deep.bufferDepth = 4;

    // Same streams for both runs.
    auto steps = randomSteps(rng, shallow, 32, 0.3, 3.0);
    Tile t1(shallow), t4(deep);
    uint64_t c1 = t1.run(steps).cycles;
    uint64_t c4 = t4.run(steps).cycles;
    EXPECT_LE(c4, c1);
}

TEST(Tile, MoreRowsCostMoreCyclesPerStep)
{
    // Fig. 19: increasing rows per tile increases synchronization
    // among PEs sharing the A stream, lowering performance.
    Rng rng(105);
    double cps[2];
    int idx = 0;
    for (int rows : {2, 16}) {
        TileConfig cfg;
        cfg.rows = rows;
        Tile tile(cfg);
        Rng local(105); // identical A/B streams
        auto steps = randomSteps(local, cfg, 48, 0.2, 2.5);
        cps[idx++] = static_cast<double>(tile.run(steps).cycles) / 48.0;
    }
    EXPECT_GE(cps[1], cps[0]);
}

TEST(Tile, StallTaxonomyPartitionsLaneCycles)
{
    Rng rng(106);
    TileConfig cfg;
    Tile tile(cfg);
    auto steps = randomSteps(rng, cfg, 24, 0.25, 2.0);
    tile.run(steps);
    PeStats agg = tile.aggregateStats();
    EXPECT_EQ(agg.laneCycles(),
              agg.setCycles * static_cast<uint64_t>(cfg.pe.lanes));
    EXPECT_GT(agg.laneUseful, 0u);
}

TEST(Tile, InterPeStallsAppearWhenColumnsAreImbalanced)
{
    // Column 0 gets dense many-term serial values, the others see
    // zeros: the fast columns must wait on the broadcast governed by
    // the slow one.
    TileConfig cfg;
    cfg.rows = 2;
    cfg.cols = 4;
    Tile tile(cfg);
    Rng rng(107);
    std::vector<TileStep> steps(12);
    for (auto &s : steps) {
        s.a.assign(static_cast<size_t>(cfg.cols) * 8, BFloat16());
        s.b = randomValues(rng, static_cast<size_t>(cfg.rows) * 8, 0.0,
                           1.0);
        for (int l = 0; l < 8; ++l) {
            // 0x7f mantissa: maximal raw/NAF term count.
            s.a[static_cast<size_t>(l)] =
                BFloat16::fromFields(false, 127, 0x55);
        }
    }
    tile.run(steps);
    PeStats agg = tile.aggregateStats();
    EXPECT_GT(agg.laneInterPe, 0u);
}

/** Every PeStats field, in declaration order. */
std::vector<uint64_t>
statFields(const PeStats &s)
{
    return {s.laneUseful, s.laneNoTerm, s.laneShiftRange, s.laneExponent,
            s.laneInterPe, s.setCycles, s.sets, s.macs, s.termsProcessed,
            s.termsZeroSkipped, s.termsObSkipped};
}

TEST(Tile, RetimeMatchesAFreshRun)
{
    // One run, retimed for other buffer depths and exponent floors,
    // reports what a fresh tile of each config reports on the same
    // steps: its cycles and every statistic. Sparse values with a wide
    // exponent spread give short sets (the floor binds) and imbalanced
    // columns (the depth binds).
    const TileConfig cfg;
    Rng rng(109);
    const auto steps = randomSteps(rng, cfg, 40, 0.6, 2.5);
    Tile tile(cfg);
    tile.run(steps);
    const PeStats ran = tile.aggregateStats();

    auto timing = [&](int depth, int floor) {
        TileConfig other = cfg;
        other.bufferDepth = depth;
        other.pe.exponentFloor = floor;
        return other;
    };
    for (int depth : {1, 2, 4})
        for (int floor : {0, 1, 2, 4}) {
            Tile fresh(timing(depth, floor));
            const uint64_t want_cycles = fresh.run(steps).cycles;
            const TileTiming got = tile.retime(timing(depth, floor));
            PeStats got_stats = ran;
            got.applyTo(got_stats);
            const std::string what = "depth " + std::to_string(depth) +
                                     " floor " + std::to_string(floor);
            EXPECT_EQ(got.cycles, want_cycles) << what;
            EXPECT_EQ(statFields(got_stats),
                      statFields(fresh.aggregateStats()))
                << what;
        }
    EXPECT_EQ(statFields(tile.aggregateStats()), statFields(ran));

    // Both fields move this run's timing, so a retime that kept the
    // run's own depth or floor fails above.
    EXPECT_NE(tile.retime(timing(4, 2)).laneInterPe, ran.laneInterPe);
    EXPECT_NE(tile.retime(timing(1, 4)).laneExponent, ran.laneExponent);
}

TEST(Tile, ResetAccumulatorsClearsOutputs)
{
    Rng rng(108);
    TileConfig cfg;
    cfg.rows = 2;
    cfg.cols = 2;
    Tile tile(cfg);
    auto steps = randomSteps(rng, cfg, 4, 0.0, 1.0);
    tile.run(steps);
    EXPECT_NE(tile.output(0, 0), 0.0f);
    tile.resetAccumulators();
    EXPECT_EQ(tile.output(0, 0), 0.0f);
}

/** Sweep rows-per-tile: cycle counts must be monotone-ish in rows. */
class TileRowsSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(TileRowsSweep, RunsAndPartitionsStats)
{
    TileConfig cfg;
    cfg.rows = GetParam();
    Tile tile(cfg);
    Rng rng(200 + GetParam());
    auto steps = randomSteps(rng, cfg, 16, 0.2, 2.0);
    TileRunResult res = tile.run(steps);
    EXPECT_GE(res.cycles, res.steps);
    PeStats agg = tile.aggregateStats();
    EXPECT_EQ(agg.laneCycles(),
              agg.setCycles * static_cast<uint64_t>(cfg.pe.lanes));
}

INSTANTIATE_TEST_SUITE_P(Rows, TileRowsSweep,
                         ::testing::Values(2, 4, 8, 16));

} // namespace
} // namespace fpraker
