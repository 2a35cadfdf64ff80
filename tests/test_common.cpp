/**
 * @file
 * Tests for the common utilities (stats, tables, RNG, bit helpers,
 * the strict decimal parser).
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/bitutil.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace fpraker {
namespace {

TEST(BitUtil, Masks)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(8), 0xffu);
    EXPECT_EQ(maskBits(64), ~uint64_t{0});
}

TEST(BitUtil, MsbPos)
{
    EXPECT_EQ(msbPos(0), -1);
    EXPECT_EQ(msbPos(1), 0);
    EXPECT_EQ(msbPos(0x80), 7);
    EXPECT_EQ(msbPos(uint64_t{1} << 63), 63);
}

TEST(BitUtil, BitsOf)
{
    EXPECT_EQ(bitsOf(0xabcd, 4, 8), 0xbcu);
    EXPECT_EQ(bitsOf(0xff, 0, 4), 0xfu);
}

TEST(BitUtil, DivCeilAndRoundUp)
{
    EXPECT_EQ(divCeil(10, 3), 4);
    EXPECT_EQ(divCeil(9, 3), 3);
    EXPECT_EQ(roundUp(10, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
}

TEST(BitUtil, BitWidth)
{
    EXPECT_EQ(bitWidth(0), 0);
    EXPECT_EQ(bitWidth(1), 1);
    EXPECT_EQ(bitWidth(255), 8);
    EXPECT_EQ(bitWidth(256), 9);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(StatSet, AddGetMerge)
{
    StatSet s;
    s.add("x", 2.0);
    s.add("x", 3.0);
    s.add("y", 1.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_DOUBLE_EQ(s.total(), 6.0);
    EXPECT_DOUBLE_EQ(s.sum({"x", "y", "z"}), 6.0);

    StatSet t;
    t.add("x", 1.0);
    t.add("z", 4.0);
    s.merge(t);
    EXPECT_DOUBLE_EQ(s.get("x"), 6.0);
    EXPECT_DOUBLE_EQ(s.get("z"), 4.0);

    s.scale(0.5);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.0);
    s.clear();
    EXPECT_DOUBLE_EQ(s.total(), 0.0);
}

TEST(Summary, TracksMoments)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    s.observe(1.0);
    s.observe(3.0);
    s.observe(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"model", "speedup"});
    t.addRow({"VGG16", Table::cell(1.53)});
    t.addRow({"Bert", Table::cell(1.2, 1)});
    std::string out = t.render();
    EXPECT_NE(out.find("model"), std::string::npos);
    EXPECT_NE(out.find("VGG16"), std::string::npos);
    EXPECT_NE(out.find("1.53"), std::string::npos);
    EXPECT_NE(out.find("1.2"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CellFormatting)
{
    EXPECT_EQ(Table::cell(1.234, 2), "1.23");
    EXPECT_EQ(Table::cell(1.0, 0), "1");
    EXPECT_EQ(Table::pct(0.421), "42.1%");
}

TEST(Parse, StrictPositiveDecimal)
{
    uint64_t v = 0;
    EXPECT_TRUE(parsePositive("1", 1, &v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(parsePositive("007", 10, &v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parsePositive("18446744073709551615", ~0ull, &v));
    EXPECT_EQ(v, ~0ull);
    EXPECT_FALSE(parsePositive("18446744073709551616", ~0ull, &v));
    EXPECT_FALSE(parsePositive("2", 1, &v));
    EXPECT_FALSE(parsePositive("9", 5, &v));
    for (const char *bad : {"", "0", "00", "-1", "+5", " 8", "8 ", "16x",
                            "1e3", "0x10", "1,000"})
        EXPECT_FALSE(parsePositive(bad, ~0ull, &v)) << bad;

    int n = 0;
    EXPECT_TRUE(parsePositiveInt("1000000000", &n));
    EXPECT_EQ(n, 1000000000);
    EXPECT_FALSE(parsePositiveInt("1000000001", &n));
    EXPECT_EQ(n, 1000000000); // untouched on failure
}

} // namespace
} // namespace fpraker
