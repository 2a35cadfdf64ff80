#include "numeric/slab_ops.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace fpraker {
namespace slab {

SimdTier
activeTier()
{
    static const SimdTier tier = [] {
        const char *env = std::getenv("FPRAKER_SIMD");
        fatal_if(env != nullptr && *env != '\0' &&
                     std::strcmp(env, "scalar") != 0,
                 "FPRAKER_SIMD=%s: expected 'scalar' (or unset for "
                 "the SSE2 bodies)",
                 env);
#ifdef __SSE2__
        if (env == nullptr || *env == '\0')
            return SimdTier::Sse2;
#endif
        return SimdTier::Scalar;
    }();
    return tier;
}

const char *
simdLevel()
{
    return activeTier() == SimdTier::Sse2 ? "sse2" : "scalar";
}

void
countTerms(const BFloat16 *values, size_t n, const uint8_t counts[256],
           uint64_t *zeros, uint64_t *terms)
{
    uint64_t z = 0, t = 0;
    for (size_t i = 0; i < n; ++i) {
        const BFloat16 v = values[i];
        if (v.isZero()) {
            z += 1;
            continue;
        }
        t += counts[v.significand()];
    }
    *zeros += z;
    *terms += t;
}

void
packBf16(const int16_t *biased_exp, const uint8_t *man,
         const uint8_t *neg, size_t n, BFloat16 *out)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = BFloat16::fromBits(static_cast<uint16_t>(
            (neg[i] ? 0x8000u : 0u) |
            (static_cast<unsigned>(biased_exp[i] & 0xff) << 7) |
            (man[i] & 0x7fu)));
}

} // namespace slab
} // namespace fpraker
