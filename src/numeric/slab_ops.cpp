#include "numeric/slab_ops.h"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define FPRAKER_SLAB_X86 1
#include <immintrin.h>
#endif

namespace fpraker {
namespace slab {

void
countTermsScalar(const BFloat16 *values, size_t n,
                 const uint8_t counts[256], uint64_t *zeros,
                 uint64_t *terms)
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
packBf16Scalar(const int16_t *biased_exp, const uint8_t *man,
               const uint8_t *neg, size_t n, BFloat16 *out)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = BFloat16::fromBits(static_cast<uint16_t>(
            (neg[i] ? 0x8000u : 0u) |
            (static_cast<unsigned>(biased_exp[i] & 0xff) << 7) |
            (man[i] & 0x7fu)));
}

#ifdef FPRAKER_SLAB_X86

// The SIMD pack bodies store whole registers over BFloat16 slots.
static_assert(std::is_trivially_copyable_v<BFloat16>,
              "packBf16 stores BFloat16 bit patterns with memcpy");

namespace {

bool
haveAvx2()
{
    // __builtin_cpu_init is idempotent; calling it here avoids any
    // static-initialization-order dependency on libgcc's constructor.
    __builtin_cpu_init();
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
}

bool
haveAvx512()
{
    __builtin_cpu_init();
    static const bool have = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512bw");
    return have;
}

/**
 * Classify 8 bf16 lanes: *sig8 receives their significands packed to
 * bytes (0 for zero values) in the low 8 bytes; the return value is
 * the 16-bit zero mask from movemask_epi8 (two bits per lane).
 */
inline int
classify8(__m128i v, __m128i *sig8)
{
    const __m128i vzero = _mm_setzero_si128();
    const __m128i z = _mm_cmpeq_epi16(
        _mm_and_si128(v, _mm_set1_epi16(0x7fff)), vzero);
    const __m128i sig16 = _mm_andnot_si128(
        z, _mm_or_si128(_mm_and_si128(v, _mm_set1_epi16(0x7f)),
                        _mm_set1_epi16(0x80)));
    *sig8 = _mm_packus_epi16(sig16, vzero);
    return _mm_movemask_epi8(z);
}

// SSE2 predates pshufb (SSSE3), so this tier keeps the 256-entry
// memory-LUT walk; the nibble LUT starts at AVX2.
void
countTermsSse2(const BFloat16 *values, size_t n,
               const uint8_t counts[256], uint64_t *zeros,
               uint64_t *terms)
{
    uint64_t z = 0, t = 0;
    size_t i = 0;
    alignas(16) uint8_t sig[16];
    for (; i + 16 <= n; i += 16) {
        __m128i v0, v1, s0, s1;
        std::memcpy(&v0, values + i, 16);
        std::memcpy(&v1, values + i + 8, 16);
        const int zm0 = classify8(v0, &s0);
        const int zm1 = classify8(v1, &s1);
        z += static_cast<unsigned>(std::popcount(
                 static_cast<unsigned>(zm0) |
                 (static_cast<unsigned>(zm1) << 16))) /
             2;
        if (zm0 != 0xffff || zm1 != 0xffff) {
            _mm_store_si128(reinterpret_cast<__m128i *>(sig),
                            _mm_unpacklo_epi64(s0, s1));
            for (int j = 0; j < 16; ++j)
                t += counts[sig[j]];
        }
    }
    *zeros += z;
    *terms += t;
    if (i < n)
        countTermsScalar(values + i, n - i, counts, zeros, terms);
}

/**
 * Extract the 16-bit significand lanes of @p v (0 for zero values)
 * folded for counting: with @p fold set, x -> x ^ 3x maps the NAF
 * digit count onto popcount (3x needs the 16-bit width). *zero_mask
 * receives the movemask_epi8 zero-lane mask.
 */
__attribute__((target("avx2"))) inline __m256i
countFold16(__m256i v, bool fold, uint32_t *zero_mask)
{
    const __m256i z = _mm256_cmpeq_epi16(
        _mm256_and_si256(v, _mm256_set1_epi16(0x7fff)),
        _mm256_setzero_si256());
    *zero_mask = static_cast<uint32_t>(_mm256_movemask_epi8(z));
    const __m256i sig = _mm256_andnot_si256(
        z, _mm256_or_si256(_mm256_and_si256(v, _mm256_set1_epi16(0x7f)),
                           _mm256_set1_epi16(0x80)));
    if (!fold)
        return sig;
    const __m256i x3 = _mm256_add_epi16(sig, _mm256_slli_epi16(sig, 1));
    return _mm256_xor_si256(sig, x3);
}

__attribute__((target("avx2"))) void
countTermsAvx2(const BFloat16 *values, size_t n,
               const uint8_t counts[256], const NibbleCountLut &nib,
               uint64_t *zeros, uint64_t *terms)
{
    const __m256i tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(nib.pop4)));
    const __m256i lomask = _mm256_set1_epi8(0x0f);
    __m256i acc = _mm256_setzero_si256();
    uint64_t z = 0;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i v0, v1;
        std::memcpy(&v0, values + i, 32);
        std::memcpy(&v1, values + i + 16, 32);
        uint32_t zm0, zm1;
        const __m256i t0 = countFold16(v0, nib.nafFold, &zm0);
        const __m256i t1 = countFold16(v1, nib.nafFold, &zm1);
        z += (std::popcount(zm0) + std::popcount(zm1)) / 2;
        // Byte-wise nibble popcount over both vectors: each folded
        // 16-bit lane contributes its two bytes independently, and the
        // per-byte sums (<= 16 per vector pair) stay well inside uint8.
        const __m256i c0 = _mm256_add_epi8(
            _mm256_shuffle_epi8(tbl, _mm256_and_si256(t0, lomask)),
            _mm256_shuffle_epi8(
                tbl,
                _mm256_and_si256(_mm256_srli_epi16(t0, 4), lomask)));
        const __m256i c1 = _mm256_add_epi8(
            _mm256_shuffle_epi8(tbl, _mm256_and_si256(t1, lomask)),
            _mm256_shuffle_epi8(
                tbl,
                _mm256_and_si256(_mm256_srli_epi16(t1, 4), lomask)));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(_mm256_add_epi8(c0, c1),
                                 _mm256_setzero_si256()));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    *terms += lanes[0] + lanes[1] + lanes[2] + lanes[3];
    *zeros += z;
    if (i < n)
        countTermsSse2(values + i, n - i, counts, zeros, terms);
}

__attribute__((target("avx512f,avx512bw"))) inline __m512i
countFold16Z(__m512i v, bool fold, uint32_t *zero_count)
{
    const __mmask32 zm = _mm512_cmpeq_epi16_mask(
        _mm512_and_si512(v, _mm512_set1_epi16(0x7fff)),
        _mm512_setzero_si512());
    *zero_count = static_cast<uint32_t>(
        std::popcount(static_cast<uint32_t>(zm)));
    const __m512i sig = _mm512_maskz_mov_epi16(
        static_cast<__mmask32>(~zm),
        _mm512_or_si512(_mm512_and_si512(v, _mm512_set1_epi16(0x7f)),
                        _mm512_set1_epi16(0x80)));
    if (!fold)
        return sig;
    const __m512i x3 = _mm512_add_epi16(sig, _mm512_slli_epi16(sig, 1));
    return _mm512_xor_si512(sig, x3);
}

__attribute__((target("avx512f,avx512bw"))) void
countTermsAvx512(const BFloat16 *values, size_t n,
                 const uint8_t counts[256], const NibbleCountLut &nib,
                 uint64_t *zeros, uint64_t *terms)
{
    const __m512i tbl = _mm512_broadcast_i32x4(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(nib.pop4)));
    const __m512i lomask = _mm512_set1_epi8(0x0f);
    __m512i acc = _mm512_setzero_si512();
    uint64_t z = 0;
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m512i v0, v1;
        std::memcpy(&v0, values + i, 64);
        std::memcpy(&v1, values + i + 32, 64);
        uint32_t zc0, zc1;
        const __m512i t0 = countFold16Z(v0, nib.nafFold, &zc0);
        const __m512i t1 = countFold16Z(v1, nib.nafFold, &zc1);
        z += zc0 + zc1;
        const __m512i c0 = _mm512_add_epi8(
            _mm512_shuffle_epi8(tbl, _mm512_and_si512(t0, lomask)),
            _mm512_shuffle_epi8(
                tbl,
                _mm512_and_si512(_mm512_srli_epi16(t0, 4), lomask)));
        const __m512i c1 = _mm512_add_epi8(
            _mm512_shuffle_epi8(tbl, _mm512_and_si512(t1, lomask)),
            _mm512_shuffle_epi8(
                tbl,
                _mm512_and_si512(_mm512_srli_epi16(t1, 4), lomask)));
        acc = _mm512_add_epi64(
            acc, _mm512_sad_epu8(_mm512_add_epi8(c0, c1),
                                 _mm512_setzero_si512()));
    }
    *terms += static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
    *zeros += z;
    if (i < n)
        countTermsAvx2(values + i, n - i, counts, nib, zeros, terms);
}

void
packBf16Sse2(const int16_t *biased_exp, const uint8_t *man,
             const uint8_t *neg, size_t n, BFloat16 *out)
{
    const __m128i vzero = _mm_setzero_si128();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m128i e, m8, s8;
        std::memcpy(&e, biased_exp + i, 16);
        m8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(man + i));
        s8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(neg + i));
        const __m128i m16 = _mm_unpacklo_epi8(m8, vzero);
        const __m128i s16 = _mm_unpacklo_epi8(s8, vzero);
        const __m128i bits = _mm_or_si128(
            _mm_or_si128(
                _mm_slli_epi16(_mm_and_si128(e, _mm_set1_epi16(0xff)),
                               7),
                _mm_and_si128(m16, _mm_set1_epi16(0x7f))),
            _mm_slli_epi16(s16, 15));
        std::memcpy(static_cast<void *>(out + i), &bits, 16);
    }
    if (i < n)
        packBf16Scalar(biased_exp + i, man + i, neg + i, n - i,
                       out + i);
}

__attribute__((target("avx2"))) void
packBf16Avx2(const int16_t *biased_exp, const uint8_t *man,
             const uint8_t *neg, size_t n, BFloat16 *out)
{
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m256i e;
        std::memcpy(&e, biased_exp + i, 32);
        const __m256i m16 = _mm256_cvtepu8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(man + i)));
        const __m256i s16 = _mm256_cvtepu8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(neg + i)));
        const __m256i bits = _mm256_or_si256(
            _mm256_or_si256(
                _mm256_slli_epi16(
                    _mm256_and_si256(e, _mm256_set1_epi16(0xff)), 7),
                _mm256_and_si256(m16, _mm256_set1_epi16(0x7f))),
            _mm256_slli_epi16(s16, 15));
        std::memcpy(static_cast<void *>(out + i), &bits, 32);
    }
    if (i < n)
        packBf16Sse2(biased_exp + i, man + i, neg + i, n - i, out + i);
}

__attribute__((target("avx512f,avx512bw"))) void
packBf16Avx512(const int16_t *biased_exp, const uint8_t *man,
               const uint8_t *neg, size_t n, BFloat16 *out)
{
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m512i e;
        std::memcpy(&e, biased_exp + i, 64);
        const __m512i m16 = _mm512_cvtepu8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(man + i)));
        const __m512i s16 = _mm512_cvtepu8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(neg + i)));
        const __m512i bits = _mm512_or_si512(
            _mm512_or_si512(
                _mm512_slli_epi16(
                    _mm512_and_si512(e, _mm512_set1_epi16(0xff)), 7),
                _mm512_and_si512(m16, _mm512_set1_epi16(0x7f))),
            _mm512_slli_epi16(s16, 15));
        std::memcpy(static_cast<void *>(out + i), &bits, 64);
    }
    if (i < n)
        packBf16Avx2(biased_exp + i, man + i, neg + i, n - i, out + i);
}

} // namespace

bool
tierCompiled(SimdTier tier)
{
    (void)tier;
    return true;
}

bool
tierSupported(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Scalar:
    case SimdTier::Sse2:
        return true;
    case SimdTier::Avx2:
        return haveAvx2();
    case SimdTier::Avx512:
        return haveAvx512();
    }
    return false;
}

void
countTermsAt(SimdTier tier, const BFloat16 *values, size_t n,
             const uint8_t counts[256], const NibbleCountLut &nib,
             uint64_t *zeros, uint64_t *terms)
{
    panic_if(!tierSupported(tier), "countTermsAt: tier %s unsupported",
             tierName(tier));
    switch (tier) {
    case SimdTier::Scalar:
        countTermsScalar(values, n, counts, zeros, terms);
        return;
    case SimdTier::Sse2:
        countTermsSse2(values, n, counts, zeros, terms);
        return;
    case SimdTier::Avx2:
        countTermsAvx2(values, n, counts, nib, zeros, terms);
        return;
    case SimdTier::Avx512:
        countTermsAvx512(values, n, counts, nib, zeros, terms);
        return;
    }
}

void
packBf16At(SimdTier tier, const int16_t *biased_exp, const uint8_t *man,
           const uint8_t *neg, size_t n, BFloat16 *out)
{
    panic_if(!tierSupported(tier), "packBf16At: tier %s unsupported",
             tierName(tier));
    switch (tier) {
    case SimdTier::Scalar:
        packBf16Scalar(biased_exp, man, neg, n, out);
        return;
    case SimdTier::Sse2:
        packBf16Sse2(biased_exp, man, neg, n, out);
        return;
    case SimdTier::Avx2:
        packBf16Avx2(biased_exp, man, neg, n, out);
        return;
    case SimdTier::Avx512:
        packBf16Avx512(biased_exp, man, neg, n, out);
        return;
    }
}

#else // !FPRAKER_SLAB_X86

bool
tierCompiled(SimdTier tier)
{
    return tier == SimdTier::Scalar;
}

bool
tierSupported(SimdTier tier)
{
    return tier == SimdTier::Scalar;
}

void
countTermsAt(SimdTier tier, const BFloat16 *values, size_t n,
             const uint8_t counts[256], const NibbleCountLut &nib,
             uint64_t *zeros, uint64_t *terms)
{
    (void)nib;
    panic_if(tier != SimdTier::Scalar,
             "countTermsAt: tier %s not compiled", tierName(tier));
    countTermsScalar(values, n, counts, zeros, terms);
}

void
packBf16At(SimdTier tier, const int16_t *biased_exp, const uint8_t *man,
           const uint8_t *neg, size_t n, BFloat16 *out)
{
    panic_if(tier != SimdTier::Scalar,
             "packBf16At: tier %s not compiled", tierName(tier));
    packBf16Scalar(biased_exp, man, neg, n, out);
}

#endif // FPRAKER_SLAB_X86

const char *
tierName(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Scalar:
        return "scalar";
    case SimdTier::Sse2:
        return "sse2";
    case SimdTier::Avx2:
        return "avx2";
    case SimdTier::Avx512:
        return "avx512";
    }
    return "scalar";
}

bool
parseSimdTier(const char *text, SimdTier *out)
{
    if (text == nullptr)
        return false;
    for (int i = 0; i < kNumSimdTiers; ++i) {
        const SimdTier tier = static_cast<SimdTier>(i);
        if (std::strcmp(text, tierName(tier)) == 0) {
            *out = tier;
            return true;
        }
    }
    return false;
}

namespace {

SimdTier
resolveActiveTier()
{
    const char *env = std::getenv("FPRAKER_SIMD");
    if (env == nullptr || *env == '\0') {
        for (int i = kNumSimdTiers - 1; i > 0; --i) {
            const SimdTier tier = static_cast<SimdTier>(i);
            if (tierSupported(tier))
                return tier;
        }
        return SimdTier::Scalar;
    }
    SimdTier forced;
    fatal_if(!parseSimdTier(env, &forced),
             "FPRAKER_SIMD=%s: unknown tier "
             "(expected scalar, sse2, avx2, or avx512)",
             env);
    fatal_if(!tierSupported(forced),
             "FPRAKER_SIMD=%s: tier is not %s — refusing to fall back "
             "silently",
             env,
             tierCompiled(forced) ? "supported by this host"
                                  : "compiled into this build");
    return forced;
}

} // namespace

SimdTier
activeTier()
{
    static const SimdTier tier = resolveActiveTier();
    return tier;
}

const char *
simdLevel()
{
    return tierName(activeTier());
}

void
countTerms(const BFloat16 *values, size_t n, const uint8_t counts[256],
           const NibbleCountLut &nib, uint64_t *zeros, uint64_t *terms)
{
    countTermsAt(activeTier(), values, n, counts, nib, zeros, terms);
}

void
packBf16(const int16_t *biased_exp, const uint8_t *man,
         const uint8_t *neg, size_t n, BFloat16 *out)
{
    packBf16At(activeTier(), biased_exp, man, neg, n, out);
}

} // namespace slab
} // namespace fpraker
