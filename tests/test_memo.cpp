/**
 * @file
 * Tests for memoization: the whole-bf16 ValueLut differential against
 * TermEncoder over the full 16-bit domain, SimMemo's
 * exact-by-construction cache behaviors (key verification, budget
 * admission, LRU eviction), and the phase runner's burst memo —
 * bit-identical with the memo off, cold, warm, shared across sample
 * budgets, and evicting, at 1, 2, and 8 threads.
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "accel/phase_runner.h"
#include "numeric/term_encoder.h"
#include "numeric/value_lut.h"
#include "sim/sim_engine.h"
#include "sim/sim_memo.h"
#include "trace/model_zoo.h"
#include "trace/tensor_gen.h"

namespace fpraker {
namespace {

TEST(ValueLut, FullDomainMatchesTermEncoder)
{
    for (TermEncoding enc :
         {TermEncoding::Canonical, TermEncoding::RawBits}) {
        const ValueLut &lut = ValueLut::of(enc);
        const TermEncoder encoder(enc);
        ASSERT_EQ(lut.encoding(), enc);
        for (uint32_t bits = 0; bits < 65536; ++bits) {
            const BFloat16 v =
                BFloat16::fromBits(static_cast<uint16_t>(bits));
            const ValueLut::Entry &e =
                lut.entry(static_cast<uint16_t>(bits));

            ASSERT_EQ((e.flags & ValueLut::kNegative) != 0,
                      v.isNegative())
                << "bits " << bits;
            ASSERT_EQ((e.flags & ValueLut::kZero) != 0, v.isZero())
                << "bits " << bits;
            ASSERT_EQ((e.flags & ValueLut::kFinite) != 0, v.isFinite())
                << "bits " << bits;
            ASSERT_EQ(e.unbiasedExp, v.unbiasedExponent())
                << "bits " << bits;
            ASSERT_EQ(e.biasedExp, v.biasedExponent())
                << "bits " << bits;
            ASSERT_EQ(e.sig, v.significand()) << "bits " << bits;

            const TermStream want = encoder.encode(v);
            ASSERT_EQ(e.nterms, want.size()) << "bits " << bits;
            ASSERT_NE(e.stream, nullptr) << "bits " << bits;
            ASSERT_EQ(e.stream->size(), want.size()) << "bits " << bits;
            for (int i = 0; i < want.size(); ++i)
                ASSERT_TRUE((*e.stream)[i] == want[i])
                    << "bits " << bits << " term " << i;
            if (want.size() > 0) {
                ASSERT_EQ(e.shift0, want[0].shift) << "bits " << bits;
            }
        }
    }
}

TEST(ValueLut, BDecodeSharesEncodingIndependentFields)
{
    // The B-side decode fields must not depend on the term encoding.
    const ValueLut &canon = ValueLut::of(TermEncoding::Canonical);
    const ValueLut &raw = ValueLut::of(TermEncoding::RawBits);
    ASSERT_EQ(&ValueLut::bDecode(), &canon);
    for (uint32_t bits = 0; bits < 65536; bits += 17) {
        const ValueLut::Entry &a =
            canon.entry(static_cast<uint16_t>(bits));
        const ValueLut::Entry &b =
            raw.entry(static_cast<uint16_t>(bits));
        ASSERT_EQ(a.flags, b.flags) << "bits " << bits;
        ASSERT_EQ(a.biasedExp, b.biasedExp) << "bits " << bits;
        ASSERT_EQ(a.sig, b.sig) << "bits " << bits;
    }
}

TEST(SimMemo, RoundTripVerifiesFullKey)
{
    SimMemo memo(1 << 20);
    const char key[] = "burst-key-bytes";
    const uint64_t value = 0xdeadbeefcafef00dull;
    uint64_t got = 0;

    EXPECT_FALSE(memo.lookup(7, key, sizeof(key), &got, sizeof(got)));
    memo.insert(7, key, sizeof(key), &value, sizeof(value));
    ASSERT_TRUE(memo.lookup(7, key, sizeof(key), &got, sizeof(got)));
    EXPECT_EQ(got, value);

    // A 64-bit hash collision with different key bytes must be a
    // miss, never a wrong value.
    const char other[] = "other-key-bytes";
    static_assert(sizeof(other) == sizeof(key), "same length");
    got = 0;
    EXPECT_FALSE(
        memo.lookup(7, other, sizeof(other), &got, sizeof(got)));
    EXPECT_EQ(got, 0u);
    // A matching key with a different value size is a miss too.
    uint32_t small = 0;
    EXPECT_FALSE(
        memo.lookup(7, key, sizeof(key), &small, sizeof(small)));

    SimMemo::Stats st = memo.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 3u);
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_GT(st.bytes, 0u);
}

TEST(SimMemo, OversizedEntryNeverCached)
{
    SimMemo memo(256); // Far below one entry's cost.
    std::vector<unsigned char> key(512, 0xab);
    uint64_t value = 1, got = 0;
    memo.insert(1, key.data(), key.size(), &value, sizeof(value));
    EXPECT_FALSE(
        memo.lookup(1, key.data(), key.size(), &got, sizeof(got)));
    SimMemo::Stats st = memo.stats();
    EXPECT_EQ(st.insertions, 0u);
    EXPECT_EQ(st.bytes, 0u);
}

TEST(SimMemo, EnvBudgetIsReadAfreshAndStrictly)
{
    const char *saved = std::getenv("FPRAKER_MEMO");
    const std::string savedValue = saved ? saved : "";

    ::unsetenv("FPRAKER_MEMO");
    EXPECT_EQ(SimMemo::envBudget(), SimMemo::kDefaultBudget);
    ::setenv("FPRAKER_MEMO", "", 1);
    EXPECT_EQ(SimMemo::envBudget(), SimMemo::kDefaultBudget);
    ::setenv("FPRAKER_MEMO", "off", 1);
    EXPECT_EQ(SimMemo::envBudget(), 0u);
    ::setenv("FPRAKER_MEMO", "0", 1);
    EXPECT_EQ(SimMemo::envBudget(), 0u);
    ::setenv("FPRAKER_MEMO", "4096", 1);
    EXPECT_EQ(SimMemo::envBudget(), 4096u);
    ::setenv("FPRAKER_MEMO", "1099511627776", 1);
    EXPECT_EQ(SimMemo::envBudget(), SimMemo::kMaxBudget);

#if GTEST_HAS_DEATH_TEST
    // Anything but "off", "0" or a decimal byte count exits naming the
    // variable: "-1" once meant an unbounded memo.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"-1", "+5", " 4096", "4096 ", "64M", "1e6",
                            "OFF", "1099511627777",
                            "99999999999999999999999"}) {
        ::setenv("FPRAKER_MEMO", bad, 1);
        EXPECT_EXIT(SimMemo::envBudget(), ::testing::ExitedWithCode(1),
                    "FPRAKER_MEMO")
            << bad;
    }
#endif

    if (saved)
        ::setenv("FPRAKER_MEMO", savedValue.c_str(), 1);
    else
        ::unsetenv("FPRAKER_MEMO");
}

TEST(SimMemo, LruEvictsOldestAndRespectsBudget)
{
    // Small budget -> a single stripe; entries cost ~96 bytes each, so
    // the table holds a handful and must evict in LRU order.
    SimMemo memo(512);
    uint64_t got = 0;
    auto put = [&](uint64_t i) {
        memo.insert(i, &i, sizeof(i), &i, sizeof(i));
    };
    auto has = [&](uint64_t i) {
        return memo.lookup(i, &i, sizeof(i), &got, sizeof(got));
    };
    for (uint64_t i = 1; i <= 32; ++i)
        put(i);
    SimMemo::Stats st = memo.stats();
    EXPECT_GT(st.evictions, 0u);
    EXPECT_LE(memo.bytesHeld(), memo.budget());
    EXPECT_TRUE(has(32));  // Most recent insert survives...
    EXPECT_FALSE(has(1));  // ...the oldest was evicted.

    // A hit refreshes recency: touch the LRU-oldest survivor, insert
    // until eviction strikes again, and the touched entry survives.
    uint64_t oldest = 0;
    for (uint64_t i = 1; i <= 32; ++i)
        if (has(i)) {
            oldest = i;
            break;
        }
    ASSERT_NE(oldest, 0u);
    const uint64_t evictions_before = memo.stats().evictions;
    for (uint64_t i = 100; memo.stats().evictions <
                           evictions_before + 2; ++i) {
        put(i);
        EXPECT_TRUE(has(oldest));
        has(oldest); // Keep it most-recent.
    }
}

// ---------------------------------------------------------------- phase

void
expectPhaseEqual(const PhaseRunResult &a, const PhaseRunResult &b,
                 const char *what)
{
    EXPECT_EQ(a.avgCyclesPerStep, b.avgCyclesPerStep) << what;
    EXPECT_EQ(a.steps, b.steps) << what;
    EXPECT_EQ(a.serialSide, b.serialSide) << what;
    EXPECT_EQ(a.peStats.laneUseful, b.peStats.laneUseful) << what;
    EXPECT_EQ(a.peStats.laneNoTerm, b.peStats.laneNoTerm) << what;
    EXPECT_EQ(a.peStats.laneShiftRange, b.peStats.laneShiftRange)
        << what;
    EXPECT_EQ(a.peStats.laneExponent, b.peStats.laneExponent) << what;
    EXPECT_EQ(a.peStats.laneInterPe, b.peStats.laneInterPe) << what;
    EXPECT_EQ(a.peStats.setCycles, b.peStats.setCycles) << what;
    EXPECT_EQ(a.peStats.sets, b.peStats.sets) << what;
    EXPECT_EQ(a.peStats.macs, b.peStats.macs) << what;
    EXPECT_EQ(a.peStats.termsProcessed, b.peStats.termsProcessed)
        << what;
    EXPECT_EQ(a.peStats.termsZeroSkipped, b.peStats.termsZeroSkipped)
        << what;
    EXPECT_EQ(a.peStats.termsObSkipped, b.peStats.termsObSkipped)
        << what;
    EXPECT_EQ(a.serialStats.values, b.serialStats.values) << what;
    EXPECT_EQ(a.serialStats.zeros, b.serialStats.zeros) << what;
    EXPECT_EQ(a.serialStats.terms, b.serialStats.terms) << what;
    EXPECT_EQ(a.parallelStats.values, b.parallelStats.values) << what;
    EXPECT_EQ(a.parallelStats.zeros, b.parallelStats.zeros) << what;
    EXPECT_EQ(a.parallelStats.terms, b.parallelStats.terms) << what;
}

PhaseRunConfig
basePhaseConfig()
{
    PhaseRunConfig cfg;
    cfg.tile = TileConfig{};
    cfg.sampleSteps = 96;
    cfg.stepsPerOutput = 16;
    cfg.seed = 42;
    return cfg;
}

PhaseRunResult
runForward(const PhaseRunConfig &cfg)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    return runPhaseSample(model, model.layers.front(),
                          TrainingOp::Forward, 0.5, cfg);
}

PhasePlan
planOf(const PhaseRunConfig &cfg)
{
    const ModelInfo &model = findModel("ResNet18-Q");
    return planPhaseSample(model, model.layers.front(),
                           TrainingOp::Forward, 0.5, cfg);
}

TEST(PhaseMemo, ColdAndWarmMatchMemoOffAcrossThreadCounts)
{
    // Reference: no memo, serial.
    const PhaseRunResult ref = runForward(basePhaseConfig());
    const uint64_t bursts = planOf(basePhaseConfig()).bursts;
    ASSERT_EQ(bursts, 6u);

    for (int threads : {1, 2, 8}) {
        SimEngine engine(threads);
        SimMemo memo(8u << 20);
        PhaseRunConfig cfg = basePhaseConfig();
        cfg.engine = &engine;
        cfg.memo = &memo;
        const std::string t = " t=" + std::to_string(threads);

        // Cold: every burst misses, simulates, and is inserted.
        expectPhaseEqual(runForward(cfg), ref, ("cold" + t).c_str());
        SimMemo::Stats st = memo.stats();
        EXPECT_EQ(st.hits, 0u) << t;
        EXPECT_EQ(st.misses, bursts) << t;
        EXPECT_EQ(st.insertions, bursts) << t;

        // Warm: every burst is served from the memo.
        expectPhaseEqual(runForward(cfg), ref, ("warm" + t).c_str());
        st = memo.stats();
        EXPECT_EQ(st.hits, bursts) << t;
        EXPECT_EQ(st.misses, bursts) << t;
        EXPECT_EQ(st.insertions, bursts) << t;
    }
}

TEST(PhaseMemo, LargerBudgetReusesLeadingBursts)
{
    // The key leaves the sample budget out, so a 96-step phase finds
    // the three 16-step bursts a 48-step phase of the same layer
    // already simulated.
    PhaseRunConfig short_cfg = basePhaseConfig();
    short_cfg.sampleSteps = 48;
    const PhaseRunResult short_ref = runForward(short_cfg);
    const PhaseRunResult long_ref = runForward(basePhaseConfig());

    SimMemo memo(8u << 20);
    short_cfg.memo = &memo;
    PhaseRunConfig long_cfg = basePhaseConfig();
    long_cfg.memo = &memo;
    expectPhaseEqual(runForward(short_cfg), short_ref, "48 steps");
    EXPECT_EQ(memo.stats().hits, 0u);
    expectPhaseEqual(runForward(long_cfg), long_ref, "96 steps");
    SimMemo::Stats st = memo.stats();
    EXPECT_EQ(st.hits, 3u);
    EXPECT_EQ(st.misses, 6u);
    EXPECT_EQ(st.insertions, 6u);
}

TEST(PhaseMemo, EquivalentObThresholdsShareBursts)
{
    // obThreshold = -1 means "use fracBits", so at the default 12-bit
    // register -1 and 12 describe one machine: the second phase is
    // served entirely from the first one's bursts.
    PhaseRunConfig implicit_cfg = basePhaseConfig();
    ASSERT_EQ(implicit_cfg.tile.pe.obThreshold, -1);
    PhaseRunConfig explicit_cfg = basePhaseConfig();
    explicit_cfg.tile.pe.obThreshold = explicit_cfg.tile.pe.acc.fracBits;
    const PhaseRunResult implicit_ref = runForward(implicit_cfg);
    const PhaseRunResult explicit_ref = runForward(explicit_cfg);
    const uint64_t bursts = planOf(basePhaseConfig()).bursts;

    SimMemo memo(8u << 20);
    implicit_cfg.memo = &memo;
    explicit_cfg.memo = &memo;
    expectPhaseEqual(runForward(implicit_cfg), implicit_ref,
                     "obThreshold=-1");
    EXPECT_EQ(memo.stats().misses, bursts);
    expectPhaseEqual(runForward(explicit_cfg), explicit_ref,
                     "obThreshold=12");
    const SimMemo::Stats st = memo.stats();
    EXPECT_EQ(st.hits, bursts);
    EXPECT_EQ(st.misses, bursts);
    EXPECT_EQ(st.insertions, bursts);
}

TEST(PhaseMemo, TraceBackedPhasesAlwaysSimulate)
{
    const PhaseRunResult ref = runForward(basePhaseConfig());

    // Feed the generator's own streams through the supply seam, so the
    // results must match the generator-backed reference exactly.
    const PhasePlan plan = planOf(basePhaseConfig());
    GeneratorSlabSupply supply(plan.serialProfile, plan.parallelProfile,
                               plan.baseSeed);

    SimEngine engine(2);
    SimMemo memo(8u << 20);
    PhaseRunConfig cfg = basePhaseConfig();
    cfg.engine = &engine;
    cfg.memo = &memo;
    cfg.supply = &supply;
    for (int pass = 0; pass < 2; ++pass)
        expectPhaseEqual(runForward(cfg), ref,
                         ("pass " + std::to_string(pass)).c_str());
    SimMemo::Stats st = memo.stats();
    EXPECT_EQ(st.hits + st.misses + st.insertions + st.entries, 0u);
}

TEST(PhaseMemo, EvictionUnderTinyBudgetStaysBitIdentical)
{
    const PhaseRunResult ref = runForward(basePhaseConfig());

    // A budget holding two burst entries: six bursts per pass keep
    // evicting each other, and every pass must still be bit-identical
    // to the unmemoized run.
    for (int threads : {1, 8}) {
        SimEngine engine(threads);
        SimMemo memo(1u << 10);
        PhaseRunConfig cfg = basePhaseConfig();
        cfg.engine = &engine;
        cfg.memo = &memo;
        for (int pass = 0; pass < 3; ++pass)
            expectPhaseEqual(runForward(cfg), ref,
                             ("t=" + std::to_string(threads) + " pass " +
                              std::to_string(pass))
                                 .c_str());
        SimMemo::Stats st = memo.stats();
        EXPECT_GT(st.evictions, 0u) << threads;
        EXPECT_LE(memo.bytesHeld(), memo.budget()) << threads;
    }
}

} // namespace
} // namespace fpraker
