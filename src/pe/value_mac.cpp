#include "pe/value_mac.h"

#include <algorithm>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "common/logging.h"
#include "numeric/slab_ops.h"

namespace fpraker {

#ifdef __SSE2__

/**
 * The SSE2 body's view of TermLut: row s holds significand s's term
 * stream as eight 16-bit queue entries, 2 * (-shift) + sign for each
 * term and kNone past its end. Adding 2 * ((Ae + Be) - 7) and xoring
 * the product sign into bit 0 turns an entry into 2 * lsb + sign of
 * that term's contribution: ordered by LSB, with the sign alongside.
 */
struct FPRakerValueMac::TermQueues
{
    /** Past the end of a stream; stays below kDead after rebasing. */
    static constexpr int16_t kNone = -0x6000;

    alignas(16) int16_t rows[256][8];
    int depth = 0; //!< Longest stream of the encoding.

    explicit TermQueues(TermEncoding enc)
    {
        const TermLut &lut = TermLut::of(enc);
        for (int sig = 0; sig < 256; ++sig) {
            const TermStream &ts = lut.stream(sig);
            depth = std::max(depth, ts.size());
            for (int k = 0; k < 8; ++k)
                rows[sig][k] =
                    k < ts.size()
                        ? static_cast<int16_t>(-2 * ts[k].shift +
                                               (ts[k].neg ? 1 : 0))
                        : kNone;
        }
    }

    static const TermQueues &
    of(TermEncoding enc)
    {
        static const TermQueues canonical(TermEncoding::Canonical);
        static const TermQueues raw(TermEncoding::RawBits);
        return enc == TermEncoding::RawBits ? raw : canonical;
    }
};

#endif // __SSE2__

FPRakerValueMac::FPRakerValueMac(const PeConfig &cfg)
    : queues_(nullptr), maxDelta_(cfg.maxDelta),
      skipOb_(cfg.skipOutOfBounds),
      obThreshold_(cfg.effectiveObThreshold()), acc_(cfg.acc)
{
    panic_if(maxDelta_ < 0, "negative shifter window");
#ifdef __SSE2__
    // The SSE2 body sums 8-bit contributions shifted by up to maxDelta
    // in 16-bit lanes. FPRAKER_SIMD=scalar pins the column fallback.
    if (cfg.lanes == 8 && maxDelta_ <= 7 &&
        slab::activeTier() != slab::SimdTier::Scalar) {
        queues_ = &TermQueues::of(cfg.encoding);
        return;
    }
#endif
    column_.emplace(cfg, 1);
}

void
FPRakerValueMac::processSet(const BFloat16 *a, const BFloat16 *b)
{
#ifdef __SSE2__
    if (queues_) {
        processSet8(a, b);
        return;
    }
#endif
    column_->runSet(a, b, column_->config().lanes);
}

#ifdef __SSE2__

namespace {

/** Cold path: panic on the first non-finite pair of a set. */
void
checkFinite(const BFloat16 *a, const BFloat16 *b, int lanes)
{
    for (int l = 0; l < lanes; ++l)
        panic_if(!a[l].isFinite() || !b[l].isFinite(),
                 "non-finite PE operand (a=%04x b=%04x)", a[l].bits(),
                 b[l].bits());
}

/** Largest of eight int16 lanes. */
int
hmax16(__m128i v)
{
    v = _mm_max_epi16(v, _mm_shuffle_epi32(v, 0x4e));
    v = _mm_max_epi16(v, _mm_shuffle_epi32(v, 0xb1));
    v = _mm_max_epi16(v, _mm_shufflelo_epi16(v, 0xb1));
    return static_cast<int16_t>(_mm_cvtsi128_si32(v));
}

/** Lanes of @p a where @p m is set, else lanes of @p b. */
__m128i
select16(__m128i m, __m128i a, __m128i b)
{
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
}

/** Lanes whose @p x has bit @p bit set. */
__m128i
hasBit16(__m128i x, int16_t bit)
{
    const __m128i b = _mm_set1_epi16(bit);
    return _mm_cmpeq_epi16(_mm_and_si128(x, b), b);
}

} // namespace

/**
 * One PE's set on eight 16-bit lanes at once. q[k] holds every lane's
 * k-th remaining term as 2 * lsb + sign (TermQueues), so q[0] is the
 * pending term: the out-of-bounds compare, the window's MAX and the
 * fire mask are a few vector ops each, and a fired lane advances by
 * shifting its queue. A lane with no pending term reads at or below
 * kDead.
 */
void
FPRakerValueMac::processSet8(const BFloat16 *a, const BFloat16 *b)
{
    constexpr int16_t kDead = -0x4000;
    ExtendedAccumulator &reg = acc_.chunkRegister();
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i *>(a));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i *>(b));

    const __m128i expField = _mm_set1_epi16(0x7f80);
    const __m128i ea = _mm_and_si128(va, expField);
    const __m128i eb = _mm_and_si128(vb, expField);
    if (_mm_movemask_epi8(_mm_or_si128(_mm_cmpeq_epi16(ea, expField),
                                       _mm_cmpeq_epi16(eb, expField))))
        checkFinite(a, b, 8);

    // Exponent block: the accumulator aligns up to the largest
    // non-zero product exponent.
    const __m128i ab =
        _mm_sub_epi16(_mm_add_epi16(_mm_srli_epi16(ea, 7),
                                    _mm_srli_epi16(eb, 7)),
                      _mm_set1_epi16(2 * BFloat16::kBias));
    const __m128i magBits = _mm_set1_epi16(0x7fff);
    const __m128i zero = _mm_setzero_si128();
    const __m128i bZero = _mm_cmpeq_epi16(_mm_and_si128(vb, magBits), zero);
    const __m128i idle = _mm_or_si128(
        _mm_cmpeq_epi16(_mm_and_si128(va, magBits), zero), bZero);
    int emax = reg.exponent();
    if (_mm_movemask_epi8(idle) != 0xffff)
        emax = std::max(
            emax, hmax16(select16(idle, _mm_set1_epi16(INT16_MIN), ab)));
    reg.alignTo(emax);

    const __m128i bSig = _mm_andnot_si128(
        bZero, _mm_or_si128(_mm_and_si128(vb, _mm_set1_epi16(0x7f)),
                            _mm_set1_epi16(0x80)));
    const __m128i prodNeg = _mm_srli_epi16(_mm_xor_si128(va, vb), 15);
    const __m128i base2 =
        _mm_slli_epi16(_mm_sub_epi16(ab, _mm_set1_epi16(7)), 1);

    // Transpose the lanes' queue rows into per-term vectors.
    const TermQueues &tq = *queues_;
    __m128i r[8];
    for (int l = 0; l < 8; ++l)
        r[l] = _mm_load_si128(reinterpret_cast<const __m128i *>(
            tq.rows[a[l].significand()]));
    __m128i t[8];
    for (int i = 0; i < 4; ++i) {
        t[2 * i] = _mm_unpacklo_epi16(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm_unpackhi_epi16(r[2 * i], r[2 * i + 1]);
    }
    const __m128i u[8] = {
        _mm_unpacklo_epi32(t[0], t[2]), _mm_unpackhi_epi32(t[0], t[2]),
        _mm_unpacklo_epi32(t[1], t[3]), _mm_unpackhi_epi32(t[1], t[3]),
        _mm_unpacklo_epi32(t[4], t[6]), _mm_unpackhi_epi32(t[4], t[6]),
        _mm_unpacklo_epi32(t[5], t[7]), _mm_unpackhi_epi32(t[5], t[7]),
    };
    __m128i q[8];
    for (int i = 0; i < 4; ++i) {
        q[2 * i] = _mm_unpacklo_epi64(u[i], u[i + 4]);
        q[2 * i + 1] = _mm_unpackhi_epi64(u[i], u[i + 4]);
    }
    const int depth = tq.depth;
    for (int k = 0; k < depth; ++k)
        q[k] = _mm_xor_si128(_mm_add_epi16(q[k], base2), prodNeg);

    const __m128i one = _mm_set1_epi16(1);
    for (;;) {
        if (skipOb_) {
            // lsb < e_acc - 7 - threshold, i.e. k past the threshold.
            // Clamped: no live LSB sits outside [-300, 300].
            const int64_t bound = std::clamp<int64_t>(
                int64_t{reg.exponent()} - 7 - obThreshold_, -8192, 8191);
            const __m128i ob = _mm_cmplt_epi16(
                q[0], _mm_set1_epi16(static_cast<int16_t>(2 * bound)));
            q[0] = select16(ob, _mm_set1_epi16(kDead), q[0]);
        }
        const int top = hmax16(q[0]);
        if (top <= kDead)
            break;

        // The window: lanes with lsb >= (top lsb) - maxDelta fire.
        // Their exact sum is taken on that bound's scale rather than
        // on the lowest fired LSB: the same value, so addValue rounds
        // it the same way.
        const int ref = (top >> 1) - maxDelta_;
        const __m128i fire = _mm_cmpgt_epi16(
            q[0], _mm_set1_epi16(static_cast<int16_t>(2 * ref - 1)));
        const __m128i shift = _mm_sub_epi16(
            _mm_srai_epi16(q[0], 1),
            _mm_set1_epi16(static_cast<int16_t>(ref)));
        __m128i c = bSig; // b << shift, at most 255 << 7: fits int16.
        if (maxDelta_ >= 1)
            c = select16(hasBit16(shift, 1), _mm_slli_epi16(c, 1), c);
        if (maxDelta_ >= 2)
            c = select16(hasBit16(shift, 2), _mm_slli_epi16(c, 2), c);
        if (maxDelta_ >= 4)
            c = select16(hasBit16(shift, 4), _mm_slli_epi16(c, 4), c);
        const __m128i neg = hasBit16(q[0], 1);
        c = _mm_and_si128(_mm_sub_epi16(_mm_xor_si128(c, neg), neg), fire);
        __m128i s = _mm_madd_epi16(c, one);
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
        const int sum = _mm_cvtsi128_si32(s);
        if (sum != 0)
            reg.addValue(sum < 0, ref,
                         static_cast<uint64_t>(sum < 0 ? -sum : sum));

        // Fired lanes move to their next term.
        for (int k = 0; k + 1 < depth; ++k)
            q[k] = select16(fire, q[k + 1], q[k]);
        q[depth - 1] = select16(
            fire, _mm_set1_epi16(TermQueues::kNone), q[depth - 1]);
    }
    acc_.tickMacs(8);
}

#endif // __SSE2__

} // namespace fpraker
