/**
 * @file
 * The FPRAKER_SIMD knob contract: unset, the value MAC and the FP32
 * dot run their SSE2 / FMA bodies; `scalar` pins their fallbacks; any
 * other value is fatal and names the variable, never silently picks a
 * body.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "numeric/slab_ops.h"

namespace fpraker {
namespace {

TEST(SimdKnob, ActiveTierHonorsEnvironment)
{
    const char *env = std::getenv("FPRAKER_SIMD");
    if (env != nullptr && *env != '\0') {
        // Forced: only `scalar` gets this far (anything else would
        // have been fatal on first use).
        EXPECT_EQ(slab::SimdTier::Scalar, slab::activeTier());
        EXPECT_STREQ("scalar", slab::simdLevel());
        return;
    }
#ifdef __SSE2__
    EXPECT_EQ(slab::SimdTier::Sse2, slab::activeTier());
    EXPECT_STREQ("sse2", slab::simdLevel());
#else
    EXPECT_EQ(slab::SimdTier::Scalar, slab::activeTier());
    EXPECT_STREQ("scalar", slab::simdLevel());
#endif
}

TEST(SimdKnob, AcceptsOnlyScalar)
{
#if GTEST_HAS_DEATH_TEST
    const char *saved = std::getenv("FPRAKER_SIMD");
    const std::string savedValue = saved ? saved : "";
    // Each statement runs in a re-executed child, where the tier is
    // still unresolved and reads the value set here.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::setenv("FPRAKER_SIMD", "scalar", 1);
    EXPECT_EXIT(std::exit(slab::activeTier() == slab::SimdTier::Scalar
                              ? 0
                              : 3),
                ::testing::ExitedWithCode(0), "");
    // The former tier names, a wrong case, and "best" all exit naming
    // the variable, never silently pick a body.
    for (const char *bad : {"avx2", "sse2", "AVX2", "best", "avx512",
                            "scalar "}) {
        ::setenv("FPRAKER_SIMD", bad, 1);
        EXPECT_EXIT(slab::activeTier(), ::testing::ExitedWithCode(1),
                    "FPRAKER_SIMD")
            << bad;
    }
    if (saved)
        ::setenv("FPRAKER_SIMD", savedValue.c_str(), 1);
    else
        ::unsetenv("FPRAKER_SIMD");
#else
    GTEST_SKIP() << "death tests unavailable";
#endif
}

} // namespace
} // namespace fpraker
