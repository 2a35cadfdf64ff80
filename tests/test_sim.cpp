/**
 * @file
 * Tests for the parallel simulation subsystem: the precomputed term
 * LUT, the SimEngine determinism guarantee, the optimized column's
 * bit-parity with the seed reference algorithm, the golden checksums
 * that pin the simulator's arithmetic, and masked-tail sets.
 */

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "accel/accelerator.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "numeric/slab_ops.h"
#include "numeric/term_lut.h"
#include "pe/alt_pes.h"
#include "pe/fpraker_pe.h"
#include "sim/reference_column.h"
#include "sim/sim_engine.h"
#include "sim/sweep_runner.h"
#include "trace/model_zoo.h"
#include "trace/rng_stream.h"
#include "trace/tensor_gen.h"

namespace fpraker {
namespace {

// ---------------------------------------------------------------- LUT

TEST(TermLut, MatchesDirectEncodingForAllSignificands)
{
    for (TermEncoding e :
         {TermEncoding::Canonical, TermEncoding::RawBits}) {
        const TermLut &lut = TermLut::of(e);
        TermEncoder enc(e);
        for (int sig : {0}) {
            EXPECT_EQ(lut.stream(sig).size(), 0) << "sig " << sig;
            EXPECT_EQ(lut.countTerms(sig), 0);
        }
        for (int sig = 0x80; sig <= 0xff; ++sig) {
            TermStream direct = enc.encodeSignificand(sig);
            const TermStream &cached = lut.stream(sig);
            ASSERT_EQ(cached.size(), direct.size()) << "sig " << sig;
            for (int i = 0; i < direct.size(); ++i) {
                EXPECT_EQ(cached[i].shift, direct[i].shift)
                    << "sig " << sig << " term " << i;
                EXPECT_EQ(cached[i].neg, direct[i].neg)
                    << "sig " << sig << " term " << i;
            }
            EXPECT_EQ(lut.countTerms(sig), enc.countTerms(sig))
                << "sig " << sig;
        }
    }
}

TEST(TermLut, SharedInstancePerEncoding)
{
    EXPECT_EQ(&TermLut::of(TermEncoding::Canonical),
              &TermLut::of(TermEncoding::Canonical));
    EXPECT_NE(&TermLut::of(TermEncoding::Canonical),
              &TermLut::of(TermEncoding::RawBits));
}

// ------------------------------------------- column vs seed reference

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
 * Every PE of @p opt against @p ref: the FP32 total, the exact chunk
 * register, and all eleven stat counters.
 */
void
expectColumnMatches(const FPRakerColumn &opt, const ReferenceColumn &ref,
                    const std::string &what)
{
    for (int r = 0; r < ref.numPes(); ++r) {
        const std::string pe = what + ", pe " + std::to_string(r);
        EXPECT_EQ(opt.accumulator(r).total(), ref.accumulator(r).total())
            << pe;
        EXPECT_EQ(opt.accumulator(r).chunkRegister().readDouble(),
                  ref.accumulator(r).chunkRegister().readDouble())
            << pe;
        EXPECT_EQ(opt.accumulator(r).chunkRegister().exponent(),
                  ref.accumulator(r).chunkRegister().exponent())
            << pe;
        expectStatsEqual(opt.stats(r), ref.stats(r), pe.c_str());
    }
}

/** @p cfg with @p lanes lanes (unchanged when @p lanes is 0). */
PeConfig
withLanes(PeConfig cfg, int lanes)
{
    if (lanes > 0)
        cfg.lanes = lanes;
    return cfg;
}

/** Lane-cycles a cycle charges: every lane is in exactly one class. */
uint64_t
laneCycleCount(const PeStats &s)
{
    return s.laneUseful + s.laneShiftRange + s.laneNoTerm;
}

/**
 * One column three ways: the seed reference, the column as the tile
 * runs it, and a traced copy of that column stepped in lockstep with
 * the reference. Tracing observes and never influences, so the traced
 * copy must match the reference too, and each cycle's records must
 * agree with it: the register's exponent before the cycle, the number
 * of fired and shift-stalled lanes of every PE, and a base and k's
 * consistent with the window.
 *
 * A reference built with fewer lanes than the column stands for the
 * column's ragged sets: every set then runs on ref.config().lanes
 * active lanes, and the reference, which has no active-lane count, is
 * the narrower column those sets must be equal to.
 */
struct ColumnTriple
{
    ReferenceColumn ref;
    FPRakerColumn fast;
    FPRakerColumn traced;
    std::vector<PeCycleTrace> records; //!< The traced copy's last cycle.

    ColumnTriple(const PeConfig &cfg, int pes, int active_lanes = 0)
        : ref(withLanes(cfg, active_lanes), pes), fast(cfg, pes),
          traced(cfg, pes)
    {
        traced.setTraceCallback(
            [this](const PeCycleTrace &t) { records.push_back(t); });
    }
    ColumnTriple(const ColumnTriple &) = delete;
    ColumnTriple &operator=(const ColumnTriple &) = delete;

    /**
     * One set, B row r at b + r * config().lanes, all three columns
     * stepped cycle by cycle with the reference (so a column that never
     * finishes fails instead of hanging); false (with a failure) on
     * diverged cycles or trace records.
     */
    bool
    runSet(const BFloat16 *a, const BFloat16 *b, const std::string &what)
    {
        const int stride = fast.config().lanes;
        const int active = ref.config().lanes;
        ref.beginSet(a, b, stride);
        fast.beginSet(a, b, stride, active);
        traced.beginSet(a, b, stride, active);
        const int pes = ref.numPes();
        std::vector<int> exps(static_cast<size_t>(pes));
        std::vector<PeStats> before(static_cast<size_t>(pes));
        int cycle = 0;
        while (ref.busy()) {
            for (int r = 0; r < pes; ++r) {
                exps[r] = ref.accumulator(r).chunkRegister().exponent();
                before[r] = ref.stats(r);
            }
            ref.stepCycle();
            // The reference settles on entry, so its first call may
            // retire the set without a processing cycle.
            if (laneCycleCount(ref.stats(0)) == laneCycleCount(before[0]))
                continue;
            ++cycle;
            fast.stepCycle();
            records.clear();
            traced.stepCycle();
            if (!expectCycleRecords(
                    cycle, exps, before,
                    what + ", cycle " + std::to_string(cycle)))
                return false;
        }
        if (fast.busy() || traced.busy()) {
            ADD_FAILURE() << what << ": still busy after the reference's "
                          << cycle << " cycles";
            return false;
        }
        const int want = ref.finishSet();
        const int fast_cycles = fast.finishSet();
        const int traced_cycles = traced.finishSet();
        EXPECT_EQ(fast_cycles, want) << what;
        EXPECT_EQ(traced_cycles, want) << what << " (traced)";
        return fast_cycles == want && traced_cycles == want;
    }

    /**
     * The traced copy's records of processing cycle @p cycle against
     * the reference's same cycle: @p exps and @p before are each PE's
     * register exponent and counters before it.
     */
    bool
    expectCycleRecords(int cycle, const std::vector<int> &exps,
                       const std::vector<PeStats> &before,
                       const std::string &what) const
    {
        using LA = PeCycleTrace::LaneAction;
        const int pes = ref.numPes();
        const size_t lanes = static_cast<size_t>(traced.config().lanes);
        const int active = ref.config().lanes;
        const int window = traced.config().maxDelta;
        if (records.size() != static_cast<size_t>(pes)) {
            ADD_FAILURE() << what << ": " << records.size()
                          << " records for " << pes << " PEs";
            return false;
        }
        for (int r = 0; r < pes; ++r) {
            const PeCycleTrace &t = records[static_cast<size_t>(r)];
            bool ok = t.cycle == cycle && t.pe == r &&
                      t.accExp == exps[r] && t.action.size() == lanes &&
                      t.k.size() == lanes;
            uint64_t fired = 0;
            uint64_t stalled = 0;
            int base = INT_MAX;
            for (size_t l = 0; ok && l < lanes; ++l) {
                if (t.action[l] == LA::Idle) {
                    ok = t.k[l] == 0;
                    continue;
                }
                // k = accExp + shift - (Ae + Be): shifts lie in [-1, 7]
                // and product exponents in [-254, 254].
                const int d = t.k[l] - t.accExp;
                ok = static_cast<int>(l) < active && d >= -255 && d <= 261 &&
                     (t.action[l] == LA::Fired ||
                      t.action[l] == LA::ShiftStall);
                base = std::min(base, t.k[l]);
                (t.action[l] == LA::Fired ? fired : stalled) += 1;
            }
            ok = ok && t.base == (fired + stalled ? base : 0);
            for (size_t l = 0; ok && l < lanes; ++l)
                if (t.action[l] != LA::Idle)
                    ok = (t.action[l] == LA::Fired) ==
                         (t.k[l] - t.base <= window);
            const PeStats &now = ref.stats(r);
            ok = ok && fired == now.laneUseful - before[r].laneUseful &&
                 stalled == now.laneShiftRange - before[r].laneShiftRange;
            if (!ok) {
                ADD_FAILURE()
                    << what << ", pe " << r << ": record (cycle " << t.cycle
                    << ", pe " << t.pe << ", accExp " << t.accExp
                    << ", base " << t.base << ", " << fired << " fired, "
                    << stalled << " stalled) against the reference's "
                    << "exponent " << exps[r] << ", "
                    << now.laneUseful - before[r].laneUseful << " fired, "
                    << now.laneShiftRange - before[r].laneShiftRange
                    << " stalled";
                return false;
            }
        }
        return true;
    }

    void
    expectMatch(const std::string &what) const
    {
        expectColumnMatches(fast, ref, what);
        expectColumnMatches(traced, ref, what + " (traced)");
    }

    void
    resetAccumulators()
    {
        ref.resetAccumulators();
        fast.resetAccumulators();
        traced.resetAccumulators();
    }
};

/** ColumnParity's window stratum for the Bit-Pragmatic shape. */
constexpr int kBitPragmatic = -1;

/**
 * Fuzz the optimized column against the seed-parity reference. Columns
 * of 1-16 PEs are stratified over 13 windows so every size meets
 * several: 0-8, either side of the column's vector shift network
 * (maxDelta <= 7); 48 and 49, either side of the adder tree's exact
 * bound; the unlimited 1 << 20; and the Bit-Pragmatic shape (unlimited,
 * OB skipping off, exponentFloor 1). Columns of 9-16 PEs fill two of
 * the body's 8-PE vector groups.
 */
class ColumnParity : public ::testing::TestWithParam<int>
{
};

TEST_P(ColumnParity, BitIdenticalToReference)
{
    constexpr int kWindows[] = {0, 1, 2, 3, 4, 5, 6, 7, 8,
                                48, 49, 1 << 20, kBitPragmatic};
    constexpr int kStrata = static_cast<int>(std::size(kWindows));
    Rng rng(static_cast<uint64_t>(GetParam()) * 7717 + 3);
    for (int trial = 0; trial < 6; ++trial) {
        const int i = GetParam() * 6 + trial;
        const int window = kWindows[i % kStrata];
        PeConfig cfg;
        cfg.maxDelta = window == kBitPragmatic ? 1 << 20 : window;
        cfg.obThreshold = rng.bernoulli(0.5)
                              ? -1
                              : static_cast<int>(rng.uniformInt(0, 14));
        cfg.skipOutOfBounds = rng.bernoulli(0.8);
        cfg.encoding = rng.bernoulli(0.5) ? TermEncoding::Canonical
                                          : TermEncoding::RawBits;
        cfg.acc.fracBits = static_cast<int>(rng.uniformInt(6, 16));
        if (window == kBitPragmatic) {
            cfg.skipOutOfBounds = false;
            cfg.exponentFloor = 1;
        }
        const int pes = 1 + i % 16;
        double sparsity = rng.uniform(0.0, 0.6);
        double sigma = rng.uniform(0.5, 5.0);

        ColumnTriple col(cfg, pes);
        const std::string what =
            "trial " + std::to_string(trial) + ", " + std::to_string(pes) +
            " PEs, window " + std::to_string(cfg.maxDelta) +
            (window == kBitPragmatic ? " (Bit-Pragmatic)" : "");
        for (int set = 0; set < 24; ++set) {
            auto a = randomValues(rng, 8, sparsity, sigma);
            auto b = randomValues(
                rng, static_cast<size_t>(pes) * 8, sparsity, sigma);
            ASSERT_TRUE(col.runSet(a.data(), b.data(),
                                   what + ", set " + std::to_string(set)));
        }
        col.expectMatch(what);
    }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ColumnParity, ::testing::Range(0, 13));

/** A random machine of @p lanes lanes around window @p window. */
PeConfig
randomMachine(Rng &rng, int lanes, int window)
{
    PeConfig cfg;
    cfg.lanes = lanes;
    cfg.maxDelta = window;
    cfg.obThreshold =
        rng.bernoulli(0.5) ? -1 : static_cast<int>(rng.uniformInt(0, 14));
    cfg.skipOutOfBounds = rng.bernoulli(0.8);
    cfg.encoding = rng.bernoulli(0.5) ? TermEncoding::Canonical
                                      : TermEncoding::RawBits;
    cfg.acc.fracBits = static_cast<int>(rng.uniformInt(6, 16));
    return cfg;
}

/**
 * Ragged sets: a column fed only n-lane sets (beginSet's active_lanes,
 * as dot() runs a ragged tail) is, in cycles, registers and all eleven
 * counters, an n-lane column. The reference has no active-lane count,
 * so it is built with n lanes. Every set's A operands and the last B
 * row end at lane n, so a decode that read a padded lane would leave
 * its buffer.
 */
TEST(ColumnParity, RaggedSetsMatchANarrowerReference)
{
    constexpr int kWindows[] = {0, 2, 3, 4, 5, 7, 8, 1 << 20};
    Rng rng(4099);
    auto run = [&](int lanes, int n, int pes, int window) {
        const PeConfig cfg = randomMachine(rng, lanes, window);
        const std::string what = std::to_string(n) + " of " +
                                 std::to_string(lanes) + " lanes, " +
                                 std::to_string(pes) + " PEs, window " +
                                 std::to_string(window);
        ColumnTriple col(cfg, pes, n);
        const double sparsity = rng.uniform(0.0, 0.5);
        const double sigma = rng.uniform(0.5, 4.0);
        for (int set = 0; set < 10; ++set) {
            auto a = randomValues(rng, static_cast<size_t>(n), sparsity, sigma);
            auto b = randomValues(
                rng, static_cast<size_t>(pes - 1) * lanes + n, sparsity,
                sigma);
            ASSERT_TRUE(col.runSet(a.data(), b.data(),
                                   what + ", set " + std::to_string(set)));
        }
        col.expectMatch(what);
    };
    int i = 0;
    for (int n = 1; n <= 7; ++n)
        for (int pes = 1; pes <= 24; ++pes, ++i)
            run(8, n, pes, kWindows[i % std::size(kWindows)]);
    for (int n : {1, 9, 15})
        for (int pes : {1, 17}) {
            run(16, n, pes, kWindows[i % std::size(kWindows)]);
            ++i;
        }
}

/**
 * Every lane count the PE takes (1-16) on columns of 1 to 64 PEs: one
 * to eight 8-PE groups, the last one partly filled or full.
 */
TEST(ColumnParity, EveryLaneCountAndColumnHeight)
{
    constexpr int kWindows[] = {0, 1, 3, 4, 5, 7, 8, 49, 1 << 20};
    Rng rng(8191);
    int i = 0;
    for (int lanes : {1, 2, 4, 7, 8, 9, 12, 16})
        for (int pes : {1, 5, 16, 17, 33, 64}) {
            const int window = kWindows[i++ % std::size(kWindows)];
            const PeConfig cfg = randomMachine(rng, lanes, window);
            const std::string what =
                std::to_string(lanes) + " lanes, " + std::to_string(pes) +
                " PEs, window " + std::to_string(window);
            ColumnTriple col(cfg, pes);
            const double sparsity = rng.uniform(0.0, 0.5);
            const double sigma = rng.uniform(0.5, 4.0);
            for (int set = 0; set < 8; ++set) {
                auto a = randomValues(rng, static_cast<size_t>(lanes),
                                      sparsity, sigma);
                auto b = randomValues(
                    rng, static_cast<size_t>(pes) * lanes, sparsity, sigma);
                ASSERT_TRUE(col.runSet(a.data(), b.data(),
                                       what + ", set " + std::to_string(set)));
            }
            col.expectMatch(what);
        }
}

/** bfloat16 from its sign, biased exponent field, and 7 mantissa bits. */
BFloat16
bf16Fields(bool neg, int biased_exp, int mantissa)
{
    return BFloat16::fromBits(static_cast<uint16_t>(
        (neg ? 0x8000 : 0) | (biased_exp << 7) | (mantissa & 0x7f)));
}

/**
 * The shapes at the edges of the column's int16 lane layout, on
 * columns either side of its 8-PE groups and under the machine
 * variants that change its paths: the paper's PE, the widest window
 * its shift network takes, OB skipping off, RawBits streams (up to 8
 * terms), and the wide windows it reduces in the adder tree.
 */
TEST(ColumnParity, Int16EdgeShapesMatchReference)
{
    std::vector<std::pair<std::string, PeConfig>> machines;
    machines.emplace_back("paper", PeConfig{});
    PeConfig wide;
    wide.maxDelta = 7;
    machines.emplace_back("window 7", wide);
    PeConfig no_ob;
    no_ob.skipOutOfBounds = false;
    machines.emplace_back("no OB skipping", no_ob);
    PeConfig raw;
    raw.encoding = TermEncoding::RawBits;
    raw.maxDelta = 5;
    raw.obThreshold = 4;
    machines.emplace_back("RawBits", raw);
    PeConfig unlimited;
    unlimited.maxDelta = 1 << 20;
    machines.emplace_back("unlimited window", unlimited);
    machines.emplace_back("Bit-Pragmatic", bitPragmaticFpConfig());

    for (const auto &[name, cfg] : machines) {
        for (int pes : {1, 7, 8, 9, 16}) {
            const std::string col_what =
                name + ", " + std::to_string(pes) + " PEs";
            Rng rng(static_cast<uint64_t>(pes) * 131 + cfg.maxDelta);
            const size_t b_len = static_cast<size_t>(pes) * 8;

            {
                // A fresh register with every product zero keeps the
                // kMinExp sentinel through the set, while the non-zero
                // A lanes still fire (B significand 0) term by term.
                // Later sets give the odd PEs real products, so
                // sentinel and live exponents share one vector.
                ColumnTriple col(cfg, pes);
                for (int set = 0; set < 6; ++set) {
                    auto a = randomValues(rng, 8, 0.2, 3.0);
                    std::vector<BFloat16> b(b_len, -BFloat16());
                    if (set >= 3) {
                        auto live = randomValues(rng, b_len, 0.3, 3.0);
                        for (size_t r = 1; r < static_cast<size_t>(pes);
                             r += 2)
                            std::copy_n(live.begin() + r * 8, 8,
                                        b.begin() + r * 8);
                    }
                    ASSERT_TRUE(col.runSet(a.data(), b.data(),
                                           col_what + ", zero B"));
                    for (int r = 0; r < pes; r += set >= 3 ? 2 : 1)
                        EXPECT_EQ(
                            col.fast.accumulator(r).chunkRegister().exponent(),
                            ExtendedAccumulator::kMinExp)
                            << col_what << ", pe " << r;
                }
                col.expectMatch(col_what + ", zero B");
            }

            {
                // One set leaves +v in each register; the next takes v
                // back in its first cycle (CancellingSetEmptiesThe-
                // RegisterMidSet checks the shape) while a smaller lane
                // stalls outside the paper's window and lands after.
                ColumnTriple col(cfg, pes);
                for (int pair = 0; pair < 4; ++pair) {
                    std::vector<BFloat16> a(8, BFloat16());
                    std::vector<BFloat16> b(b_len, BFloat16());
                    a[0] = bf16(1.0f);
                    for (int r = 0; r < pes; ++r) {
                        const float v =
                            static_cast<float>(1 + (r + pair) % 5);
                        b[r * 8 + 0] = bf16(pair % 2 ? -v : v);
                        b[r * 8 + 2] = bf16(v / 64.0f);
                    }
                    ASSERT_TRUE(col.runSet(a.data(), b.data(),
                                           col_what + ", cancelling"));
                    a[0] = bf16(-1.0f);
                    a[2] = bf16(1.75f);
                    ASSERT_TRUE(col.runSet(a.data(), b.data(),
                                           col_what + ", cancelling"));
                    col.expectMatch(col_what + ", cancelling");
                    col.resetAccumulators();
                }
            }

            {
                // Product exponents near +-254: the largest and the
                // smallest normal exponents, mixed with zeros, so OB
                // drops and MAX alignments span the whole range.
                ColumnTriple col(cfg, pes);
                for (int set = 0; set < 12; ++set) {
                    std::vector<BFloat16> a(8), b(b_len);
                    auto extreme = [&] {
                        const int e = rng.bernoulli(0.5)
                                          ? 254 - static_cast<int>(
                                                      rng.uniformInt(0, 2))
                                          : 1 + static_cast<int>(
                                                    rng.uniformInt(0, 2));
                        return rng.bernoulli(0.1)
                                   ? BFloat16()
                                   : bf16Fields(rng.bernoulli(0.5), e,
                                                static_cast<int>(
                                                    rng.uniformInt(0, 127)));
                    };
                    for (auto &x : a)
                        x = extreme();
                    for (auto &x : b)
                        x = extreme();
                    ASSERT_TRUE(col.runSet(a.data(), b.data(),
                                           col_what + ", extreme exponents"));
                    if (set % 4 == 3)
                        col.resetAccumulators();
                }
                col.expectMatch(col_what + ", extreme exponents");
            }

            {
                // Dense random sets under this machine.
                ColumnTriple col(cfg, pes);
                for (int set = 0; set < 16; ++set) {
                    auto a = randomValues(rng, 8, 0.1, 2.5);
                    auto b = randomValues(rng, b_len, 0.1, 2.5);
                    ASSERT_TRUE(
                        col.runSet(a.data(), b.data(), col_what + ", dense"));
                }
                col.expectMatch(col_what + ", dense");
            }
        }
    }

    // The widest column, 16 lanes on 64 PEs, either side of the int16
    // window sum's bound, lanes x (255 << maxDelta) <= 32767: at window
    // 3 sixteen lanes of the largest significand, fired together on the
    // base term, sum to 16 x 255 << 3 = 32640, and at window 4 to twice
    // that.
    constexpr int kWideLanes = 16;
    constexpr int kTallPes = 64;
    const size_t tall_b = static_cast<size_t>(kTallPes) * kWideLanes;
    for (int window : {3, 4}) {
        PeConfig cfg;
        cfg.lanes = kWideLanes;
        cfg.encoding = TermEncoding::RawBits;
        cfg.maxDelta = window;
        const std::string what =
            "16 lanes, 64 PEs, RawBits, window " + std::to_string(window);
        Rng rng(static_cast<uint64_t>(window) * 977 + 5);
        ColumnTriple col(cfg, kTallPes);
        for (int set = 0; set < 4; ++set) {
            std::vector<BFloat16> a(kWideLanes, bf16Fields(false, 127, 0x55));
            std::vector<BFloat16> b(tall_b);
            for (size_t i = 0; i < tall_b; ++i)
                b[i] = bf16Fields(set % 2 == 1, 127 + set, 0x7f);
            ASSERT_TRUE(col.runSet(a.data(), b.data(), what + ", widest sum"));
        }
        col.expectMatch(what + ", widest sum");
        for (int set = 0; set < 8; ++set) {
            auto a = randomValues(rng, kWideLanes, 0.1, 2.5);
            auto b = randomValues(rng, tall_b, 0.1, 2.5);
            ASSERT_TRUE(col.runSet(a.data(), b.data(), what + ", dense"));
        }
        col.expectMatch(what + ", dense");
    }

    // The 16-lane set that pends the most lane-cycles a PE of one
    // column can: every A lane streams eight raw terms, the products
    // are 2^8 apart and the window is 0, so each of its 128 cycles
    // fires one term while every unfinished lane stalls, pending
    // 8 x (16 + 15 + ... + 1) = 1088 lane-cycles per PE, inside the
    // 8 x lanes^2 = 2048 bound of the int16 counter.
    for (int pes : {1, kTallPes}) {
        PeConfig cfg;
        cfg.lanes = kWideLanes;
        cfg.encoding = TermEncoding::RawBits;
        cfg.maxDelta = 0;
        cfg.skipOutOfBounds = false;
        const std::string what =
            "most-pending set, " + std::to_string(pes) + " PEs";
        std::vector<BFloat16> a(kWideLanes, bf16Fields(false, 127, 0x7f));
        std::vector<BFloat16> b(static_cast<size_t>(pes) * kWideLanes);
        for (int r = 0; r < pes; ++r)
            for (int l = 0; l < kWideLanes; ++l)
                b[static_cast<size_t>(r) * kWideLanes + l] =
                    bf16Fields(r % 2 == 1, 127 + 60 - 8 * l, r % 128);
        ColumnTriple col(cfg, pes);
        ASSERT_TRUE(col.runSet(a.data(), b.data(), what));
        col.expectMatch(what);
        for (int r = 0; r < pes; ++r) {
            const PeStats &s = col.ref.stats(r);
            EXPECT_EQ(s.setCycles, 128u) << what << ", pe " << r;
            EXPECT_EQ(s.laneUseful + s.laneShiftRange, 1088u)
                << what << ", pe " << r;
        }
    }
}

/**
 * The adder tree sums exactly while its fired LSBs span at most 48
 * bits, and past that adds contribution by contribution in lane order,
 * in both bodies. Under the Bit-Pragmatic PE (no window limit, no OB
 * skipping) products of 1, twice 2^-13 (a tie at the register's 12
 * fractional bits) and a small one fire together: one exact sum reads
 * 1 + 2^-12, while adds in lane order round each tie to even and read
 * 1 (in reverse order they would read 1 + 2^-12 again). The last set's
 * non-zero products span 46 bits, and a zero-B lane that fires with
 * them stretches the tree past 48.
 */
TEST(ColumnParity, AdderTreeIsExactUpTo48Bits)
{
    const PeConfig cfg = bitPragmaticFpConfig();
    ASSERT_EQ(cfg.acc.fracBits, 12);
    struct Shape
    {
        std::string name;
        std::vector<float> products;
        double want;
    };
    const Shape shapes[] = {
        {"48-bit tree", {1.0f, 0x1p-13f, 0x1p-13f, 0x1p-48f}, 1 + 0x1p-12},
        {"49-bit tree", {1.0f, 0x1p-13f, 0x1p-13f, 0x1p-49f}, 1.0},
        {"60-bit tree", {1.0f, 0x1p-13f, 0x1p-13f, 0x1p-60f}, 1.0},
        {"zero-B lane", {1.0f, 0x1p-13f, 0x1p-13f, 0x1p-46f, 0.0f}, 1.0},
    };
    for (int pes : {1, 9}) {
        for (const Shape &shape : shapes) {
            const std::string what =
                shape.name + ", " + std::to_string(pes) + " PEs";
            std::vector<BFloat16> a(8, BFloat16());
            std::vector<BFloat16> b(static_cast<size_t>(pes) * 8,
                                    BFloat16());
            for (size_t l = 0; l < shape.products.size(); ++l) {
                a[l] = bf16(1.0f);
                for (int r = 0; r < pes; ++r)
                    b[r * 8 + l] = bf16(shape.products[l]);
            }
            ColumnTriple col(cfg, pes);
            ASSERT_TRUE(col.runSet(a.data(), b.data(), what));
            col.expectMatch(what);
            for (int r = 0; r < pes; ++r)
                EXPECT_EQ(
                    col.ref.accumulator(r).chunkRegister().readDouble(),
                    shape.want)
                    << what << ", pe " << r;
        }
    }
}

TEST(ColumnParity, CancellingSetEmptiesTheRegisterMidSet)
{
    // The cancelling shape above does what it claims: in the
    // reference, a register holding +v reads zero after v is taken
    // back in one cycle, while the set still has terms to process.
    PeConfig cfg;
    ReferenceColumn ref(cfg, 1);
    std::vector<BFloat16> a(8, BFloat16()), b(8, BFloat16());
    a[0] = bf16(1.0f);
    b[0] = bf16(3.0f);
    ref.runSet(a.data(), b.data(), 8);
    ASSERT_EQ(ref.accumulator(0).chunkRegister().readDouble(), 3.0);
    a[0] = bf16(-1.0f);
    a[2] = bf16(1.75f);
    b[2] = bf16(3.0f / 64.0f);
    ref.beginSet(a.data(), b.data(), 8);
    bool emptied = false;
    while (ref.busy()) {
        ref.stepCycle();
        if (ref.busy() &&
            ref.accumulator(0).chunkRegister().readDouble() == 0.0)
            emptied = true;
    }
    ref.finishSet();
    EXPECT_TRUE(emptied);
    EXPECT_NE(ref.accumulator(0).chunkRegister().readDouble(), 0.0);
}

/**
 * Wide-row parity: the Fig. 19/20 geometries put up to 16 PEs on one
 * serial-operand stream, and the column takes up to 64 (eight 8-PE
 * groups). With many PEs, most of a set's cycles find PEs whose every
 * live lane is already out-of-bounds: they owe no term, yet still
 * block or join each lane's consensus drop. Every cycle count,
 * accumulator bit, and stat counter must match the seed reference
 * exactly.
 */
class WideRowParity : public ::testing::TestWithParam<int>
{
};

TEST_P(WideRowParity, BitIdenticalToReference)
{
    const int pes = GetParam();
    Rng rng(static_cast<uint64_t>(pes) * 40503 + 11);
    for (int trial = 0; trial < 4; ++trial) {
        PeConfig cfg;
        // Narrow accumulators + wide exponent spreads retire lanes
        // aggressively, so most PEs finish a set long before it ends.
        cfg.obThreshold = static_cast<int>(rng.uniformInt(4, 10));
        cfg.acc.fracBits = static_cast<int>(rng.uniformInt(6, 12));
        double sparsity = rng.uniform(0.1, 0.5);
        double sigma = rng.uniform(2.0, 5.0);

        ColumnTriple col(cfg, pes);
        const std::string what = "trial " + std::to_string(trial);
        for (int set = 0; set < 16; ++set) {
            auto a = randomValues(rng, 8, sparsity, sigma);
            auto b = randomValues(
                rng, static_cast<size_t>(pes) * 8, sparsity, sigma);
            ASSERT_TRUE(col.runSet(a.data(), b.data(),
                                   what + ", set " + std::to_string(set)));
        }
        col.expectMatch(what);
    }
}

INSTANTIATE_TEST_SUITE_P(Fig19Geometries, WideRowParity,
                         ::testing::Values(2, 4, 16, 24, 32, 48, 64));

TEST(WideRowParity, WideTileMatchesReferenceTile)
{
    // A 16-row tile (the widest Fig. 19/20 point) over a multi-burst
    // step sequence, against the seed tile walk.
    Rng rng(6063);
    TileConfig cfg;
    cfg.rows = 16;
    cfg.cols = 2;
    cfg.pe.obThreshold = 8;
    const int lanes = cfg.pe.lanes;
    const size_t a_len = static_cast<size_t>(cfg.cols) * lanes;
    const size_t b_len = static_cast<size_t>(cfg.rows) * lanes;
    const size_t steps = 24;

    auto a = randomValues(rng, steps * a_len, 0.25, 3.0);
    auto b = randomValues(rng, steps * b_len, 0.25, 3.0);

    Tile tile(cfg);
    std::vector<TileStepView> views(steps);
    for (size_t s = 0; s < steps; ++s)
        views[s] = TileStepView{a.data() + s * a_len,
                                b.data() + s * b_len};
    TileRunResult opt = tile.run(views.data(), steps);

    ReferenceTile ref(cfg.pe, cfg.rows, cfg.cols, cfg.bufferDepth);
    ReferenceTileResult res = ref.run(a.data(), b.data(), steps);

    EXPECT_EQ(opt.cycles, res.cycles);
    for (int r = 0; r < cfg.rows; ++r)
        for (int c = 0; c < cfg.cols; ++c)
            EXPECT_EQ(tile.output(r, c), ref.output(r, c))
                << "PE (" << r << "," << c << ")";
    expectStatsEqual(tile.aggregateStats(), ref.aggregateStats(),
                     "wide tile stats");
}

TEST(TileParity, MatchesReferenceTileOverBursts)
{
    // A 4x4 tile, the paper's 8x8 tile, and the widest tile the busy
    // mask admits: its column 63 rides bit 63.
    Rng rng(2024);
    for (auto [rows, cols] :
         {std::pair{4, 4}, std::pair{8, 8}, std::pair{2, 64}}) {
        TileConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        const int lanes = cfg.pe.lanes;
        const size_t a_len = static_cast<size_t>(cfg.cols) * lanes;
        const size_t b_len = static_cast<size_t>(cfg.rows) * lanes;
        const size_t steps = 40;

        auto a = randomValues(rng, steps * a_len, 0.3, 2.0);
        auto b = randomValues(rng, steps * b_len, 0.3, 2.0);

        Tile tile(cfg);
        std::vector<TileStepView> views(steps);
        for (size_t s = 0; s < steps; ++s)
            views[s] = TileStepView{a.data() + s * a_len,
                                    b.data() + s * b_len};
        TileRunResult opt = tile.run(views.data(), steps);

        ReferenceTile ref(cfg.pe, cfg.rows, cfg.cols, cfg.bufferDepth);
        ReferenceTileResult res = ref.run(a.data(), b.data(), steps);

        EXPECT_EQ(opt.cycles, res.cycles) << cols << " columns";
        for (int r = 0; r < cfg.rows; ++r)
            for (int c = 0; c < cfg.cols; ++c)
                EXPECT_EQ(tile.output(r, c), ref.output(r, c))
                    << "PE (" << r << "," << c << ")";
        expectStatsEqual(tile.aggregateStats(), ref.aggregateStats(),
                         "tile stats");
    }
}

// --------------------------------------------------- golden checksums
//
// Three checksums pinned since the first optimized kernel. Each is a
// raw (separator-free) FNV-1a stream over simulated values, so any
// drift means the simulator's arithmetic changed: a deliberate change
// updates the constants here and bumps the serve cache epoch. They
// must hold at every memo setting and thread count.

constexpr uint64_t kGoldenSeed = 0xf9a4e5;
constexpr size_t kGoldenBurst = 32; //!< Steps per output block.

void
addRawStats(Fnv64 &h, const PeStats &s)
{
    for (uint64_t v :
         {s.laneUseful, s.laneNoTerm, s.laneShiftRange, s.laneExponent,
          s.laneInterPe, s.setCycles, s.sets, s.macs, s.termsProcessed,
          s.termsZeroSkipped, s.termsObSkipped})
        h.addRaw(v);
}

/** ResNet18-Q operand slabs for the paper's tile, @p steps deep. */
struct GoldenWorkload
{
    TileConfig tile = AcceleratorConfig::paperDefault().tile;
    size_t steps = 0;
    size_t aLen = 0; //!< Serial-side values per step (cols x lanes).
    size_t bLen = 0; //!< Parallel-side values per step (rows x lanes).
    std::vector<BFloat16> a;
    std::vector<BFloat16> b;
};

GoldenWorkload
goldenWorkload(size_t steps, uint64_t seed)
{
    GoldenWorkload w;
    w.steps = steps;
    w.aLen = static_cast<size_t>(w.tile.cols) * w.tile.pe.lanes;
    w.bLen = static_cast<size_t>(w.tile.rows) * w.tile.pe.lanes;
    const ModelInfo &model = findModel("ResNet18-Q");
    TensorGenerator a_gen(
        model.profile.of(TensorKind::Activation).at(0.5), seed);
    TensorGenerator b_gen(model.profile.of(TensorKind::Weight).at(0.5),
                          seed ^ 0x5eed);
    w.a.resize(steps * w.aLen);
    w.b.resize(steps * w.bLen);
    a_gen.fill(w.a.data(), w.a.size());
    b_gen.fill(w.b.data(), w.b.size());
    return w;
}

/**
 * Walk @p w through @p tile in bursts, resetting the accumulators
 * after each; @p run_burst(first_step, n) returns the burst's cycles.
 * Digests every output, then the total cycles and aggregate stats.
 */
template <typename TileT, typename RunBurst>
uint64_t
tileDigest(const GoldenWorkload &w, TileT &tile, RunBurst run_burst)
{
    Fnv64 h;
    uint64_t cycles = 0;
    for (size_t s = 0; s < w.steps; s += kGoldenBurst) {
        cycles += run_burst(s, std::min(kGoldenBurst, w.steps - s));
        for (int r = 0; r < w.tile.rows; ++r)
            for (int c = 0; c < w.tile.cols; ++c)
                h.addRaw(tile.output(r, c));
        tile.resetAccumulators();
    }
    h.addRaw(cycles);
    addRawStats(h, tile.aggregateStats());
    return h.value();
}

uint64_t
referenceTileDigest(const GoldenWorkload &w)
{
    ReferenceTile tile(w.tile.pe, w.tile.rows, w.tile.cols,
                       w.tile.bufferDepth);
    return tileDigest(w, tile, [&](size_t s, size_t n) {
        return tile.run(w.a.data() + s * w.aLen, w.b.data() + s * w.bLen,
                        n)
            .cycles;
    });
}

uint64_t
optimizedTileDigest(const GoldenWorkload &w)
{
    Tile tile(w.tile);
    std::vector<TileStepView> views(kGoldenBurst);
    return tileDigest(w, tile, [&](size_t s, size_t n) {
        for (size_t i = 0; i < n; ++i)
            views[i] = TileStepView{w.a.data() + (s + i) * w.aLen,
                                    w.b.data() + (s + i) * w.bLen};
        return tile.run(views.data(), n).cycles;
    });
}

uint64_t
modelDigest(const ModelRunReport &r)
{
    Fnv64 h;
    h.addRaw(r.fprCycles);
    h.addRaw(r.baseCycles);
    h.addRaw(r.fprEnergy.totalPj());
    h.addRaw(r.baseEnergy.totalPj());
    for (const LayerOpReport &op : r.ops) {
        h.addRaw(op.fprCycles);
        h.addRaw(op.baseCycles);
        h.addRaw(op.avgCyclesPerStep);
        h.addRaw(op.trafficBytesCompressed);
        addRawStats(h, op.sampleStats);
    }
    return h.value();
}

TEST(GoldenChecksum, TileKernelSeedSerialAndParallel)
{
    // 96 steps of the paper's 8x8 tile: the seed-parity walk and the
    // optimized tile.
    const GoldenWorkload w = goldenWorkload(96, kGoldenSeed);
    EXPECT_EQ(Fnv64::hex(referenceTileDigest(w)), "230d1bab2fa340ba");
    EXPECT_EQ(Fnv64::hex(optimizedTileDigest(w)), "230d1bab2fa340ba");
}

TEST(GoldenChecksum, SweepOfTileJobs)
{
    // Six 48-step tile jobs on per-job RNG substreams, sharded
    // through one SweepRunner.
    std::vector<GoldenWorkload> jobs;
    for (uint64_t j = 0; j < 6; ++j)
        jobs.push_back(goldenWorkload(48, substreamSeed(kGoldenSeed, j)));
    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        SweepRunner runner(engine);
        std::vector<uint64_t> digests(jobs.size());
        runner.parallelFor(jobs.size(), [&](size_t j) {
            digests[j] = optimizedTileDigest(jobs[j]);
        });
        Fnv64 h;
        for (uint64_t d : digests)
            h.addRaw(d);
        EXPECT_EQ(h.hex(), "e092b9bb1dd83ac0") << threads << " threads";
    }
}

TEST(GoldenChecksum, ModelSweep)
{
    // Full accelerator runs (the Fig. 11 unit of work) for three
    // models, unmemoized so every run simulates.
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 96;
    cfg.memoize = false;
    for (int threads : {1, 4}) {
        SimEngine engine(threads);
        const Accelerator accel(cfg);
        std::vector<SweepJob> jobs;
        for (const char *name : {"ResNet18-Q", "SNLI", "SqueezeNet 1.1"})
            jobs.push_back(SweepJob{&accel, &findModel(name), 0.5});
        Fnv64 h;
        for (const ModelRunReport &r : SweepRunner(engine).runModels(jobs))
            h.addRaw(modelDigest(r));
        EXPECT_EQ(h.hex(), "30a7aef3d8679d93") << threads << " threads";
    }
}

// ------------------------------------------------------- masked tails

TEST(MaskedTail, PaddedLanesContributeNoStats)
{
    // 19 = 2 full sets + a 3-lane tail. The tail's five padded lanes
    // must not show up in macs, zero-term slots, or lane-cycle counts.
    Rng rng(77);
    auto a = randomValues(rng, 19, 0.0, 1.0);
    auto b = randomValues(rng, 19, 0.0, 1.0);

    FPRakerPe pe((PeConfig()));
    pe.dot(a, b);
    EXPECT_EQ(pe.stats().macs, 19u);
    EXPECT_EQ(pe.stats().sets, 3u);
    // Lane-cycles partition against the per-set active lane counts:
    // the tail set contributes 3 lanes per cycle, not 8.
    uint64_t tail_cycles = 0;
    {
        FPRakerPe full((PeConfig()));
        std::vector<BFloat16> a2(a.begin(), a.begin() + 16);
        std::vector<BFloat16> b2(b.begin(), b.begin() + 16);
        uint64_t full_cycles =
            static_cast<uint64_t>(full.dot(a2, b2));
        tail_cycles = pe.stats().setCycles - full_cycles;
        EXPECT_EQ(pe.stats().laneCycles(),
                  full_cycles * 8 + tail_cycles * 3);
    }
}

TEST(MaskedTail, ResultMatchesZeroPadding)
{
    // Masking drops the padded lanes' bookkeeping but must not change
    // the arithmetic: zero-padded lanes never fire a term.
    Rng rng(78);
    for (int trial = 0; trial < 10; ++trial) {
        size_t n = 8 + rng.uniformInt(15); // 8..22, ragged tails
        auto a = randomValues(rng, n, 0.2, 2.0);
        auto b = randomValues(rng, n, 0.2, 2.0);

        FPRakerPe masked((PeConfig()));
        masked.dot(a, b);

        auto a_pad = a;
        auto b_pad = b;
        while (a_pad.size() % 8) {
            a_pad.push_back(BFloat16());
            b_pad.push_back(BFloat16());
        }
        FPRakerPe padded((PeConfig()));
        // Drive the padded run through full sets.
        for (size_t i = 0; i < a_pad.size(); i += 8) {
            MacPair pairs[8];
            for (int l = 0; l < 8; ++l)
                pairs[l] = MacPair{a_pad[i + l], b_pad[i + l]};
            padded.processSet(pairs, 8);
        }
        // The chunk cadence differs (padded lanes tick the chunk
        // counter), so compare the mathematically exact register state
        // rather than bitwise totals.
        EXPECT_NEAR(masked.resultFloat(), padded.resultFloat(),
                    1e-3f * (std::fabs(padded.resultFloat()) + 1.0f))
            << "trial " << trial;
    }
}

// --------------------------------------------------------- SimEngine

TEST(SimEngine, ParallelForCoversEveryIndexOnce)
{
    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        const size_t n = 103;
        std::vector<std::atomic<int>> hits(n);
        engine.parallelFor(n, [&](size_t i) { hits[i] += 1; });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(SimEngine, NestedParallelForDoesNotDeadlock)
{
    SimEngine engine(4);
    std::atomic<int> total{0};
    engine.parallelFor(6, [&](size_t) {
        engine.parallelFor(6, [&](size_t) { total += 1; });
    });
    EXPECT_EQ(total.load(), 36);
}

TEST(SimEngine, ZeroRequestsDefaultThreads)
{
    SimEngine engine(0);
    EXPECT_GE(engine.threads(), 1);
}

TEST(SimEngine, ThreadsEnvIsReadAfreshAndStrictly)
{
    const char *saved = std::getenv("FPRAKER_THREADS");
    const std::string savedValue = saved ? saved : "";

    ::unsetenv("FPRAKER_THREADS");
    EXPECT_EQ(SimEngine::defaultThreads(), 1);
    ::setenv("FPRAKER_THREADS", "", 1);
    EXPECT_EQ(SimEngine::defaultThreads(), 1);

#if GTEST_HAS_DEATH_TEST
    // Anything but --threads's rule (a positive decimal integer up to
    // 1e9) exits naming the variable, never silently runs serial or
    // reads a prefix. Only parsing runs: no value here starts a pool.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"abc", "-2", "0", "4x", " 4", "+4", "1e3",
                            "1000000001", "99999999999999999999"}) {
        ::setenv("FPRAKER_THREADS", bad, 1);
        EXPECT_EXIT(SimEngine::defaultThreads(),
                    ::testing::ExitedWithCode(1), "FPRAKER_THREADS")
            << bad;
    }
#endif

    ::setenv("FPRAKER_THREADS", "3", 1);
    EXPECT_EQ(SimEngine::defaultThreads(), 3);
    {
        SimEngine engine(0);
        EXPECT_EQ(engine.threads(), 3);
    }

    if (saved)
        ::setenv("FPRAKER_THREADS", savedValue.c_str(), 1);
    else
        ::unsetenv("FPRAKER_THREADS");
}

uint64_t
reportFingerprint(const ModelRunReport &r)
{
    Fnv64 h;
    h.addRaw(r.fprCycles);
    h.addRaw(r.baseCycles);
    h.addRaw(r.fprEnergy.totalPj());
    h.addRaw(r.baseEnergy.totalPj());
    h.addRaw(static_cast<double>(r.activity.laneUseful));
    h.addRaw(static_cast<double>(r.activity.termsProcessed));
    for (const LayerOpReport &op : r.ops) {
        h.addRaw(op.fprCycles);
        h.addRaw(op.baseCycles);
        h.addRaw(op.avgCyclesPerStep);
        h.addRaw(static_cast<double>(op.sampleStats.setCycles));
        h.addRaw(static_cast<double>(op.sampleStats.termsObSkipped));
    }
    return h.value();
}

TEST(SimEngine, ModelRunIsBitIdenticalAcrossThreadCounts)
{
    // One model as a one-job sweep: its (layer, op) units and their
    // bursts shard across engines of 1, 2 and 8 threads. Unmemoized,
    // so every run simulates.
    const ModelInfo &model = findModel("SNLI");
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 24;
    cfg.memoize = false;
    const Accelerator accel(cfg);
    uint64_t fingerprints[3];
    double totals[3];
    int idx = 0;
    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        ModelRunReport r = SweepRunner(engine)
                               .runModels({SweepJob{&accel, &model, 0.5}})
                               .front();
        fingerprints[idx] = reportFingerprint(r);
        totals[idx] = r.fprCycles;
        ++idx;
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
    EXPECT_EQ(fingerprints[0], fingerprints[2]);
    EXPECT_EQ(totals[0], totals[1]);
    EXPECT_EQ(totals[0], totals[2]);
}

} // namespace
} // namespace fpraker
