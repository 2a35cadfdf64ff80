#include "pe/value_mac.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "pe/vec16.h"

namespace fpraker {

using namespace vec16;

/**
 * The vector body's view of TermLut: row s holds significand s's term
 * stream as eight 16-bit queue entries, 2 * (-shift) + sign for each
 * term and kNone past its end. Adding 2 * ((Ae + Be) - 7) and xoring
 * the product sign into bit 0 turns an entry into 2 * lsb + sign of
 * that term's contribution: ordered by LSB, with the sign alongside.
 */
struct FPRakerValueMac::TermQueues
{
    /** Past the end of a stream; stays below kDead after rebasing. */
    static constexpr int16_t kNone = -0x6000;

    Vec rows[256];
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

bool
FPRakerValueMac::vectorBody(const PeConfig &cfg)
{
    // The vector body shifts eight 8-bit significands by up to maxDelta
    // and sums them in int16 elements, exact up to a window of 4.
    constexpr int kVectorWindow = 4;
    static_assert(8 * (255 << kVectorWindow) <= INT16_MAX);
    return cfg.lanes == 8 && cfg.maxDelta <= kVectorWindow;
}

FPRakerValueMac::FPRakerValueMac(const PeConfig &cfg)
    : queues_(nullptr), maxDelta_(cfg.maxDelta),
      skipOb_(cfg.skipOutOfBounds),
      obThreshold_(cfg.effectiveObThreshold()), acc_(cfg.acc)
{
    panic_if(maxDelta_ < 0, "negative shifter window");
    if (vectorBody(cfg)) {
        queues_ = &TermQueues::of(cfg.encoding);
        return;
    }
    column_.emplace(cfg, 1);
}

void
FPRakerValueMac::processSet(const SerialSet &s, const BFloat16 *b)
{
    if (queues_)
        processSet8(s, b);
    else
        column_->runSet(s.a, b, column_->config().lanes);
}

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

/**
 * Rows i and i + 4 of @p r interleaved element by element into rows 2i
 * and 2i + 1 of @p t. Each round rotates the six (row, element) index
 * bits by one, so three rounds transpose the 8 x 8 block.
 */
void
interleave(const Vec (&r)[8], Vec (&t)[8])
{
    for (int i = 0; i < 4; ++i) {
        t[2 * i] = __builtin_shufflevector(r[i], r[i + 4], 0, 8, 1, 9, 2,
                                           10, 3, 11);
        t[2 * i + 1] = __builtin_shufflevector(r[i], r[i + 4], 4, 12, 5,
                                               13, 6, 14, 7, 15);
    }
}

} // namespace

void
FPRakerValueMac::loadSerial(const PeConfig &cfg, const BFloat16 *a,
                            SerialSet &s)
{
    std::copy(a, a + cfg.lanes, s.a);
    if (!vectorBody(cfg))
        return;
    // Transpose the lanes' queue rows into per-term vectors.
    const TermQueues &tq = TermQueues::of(cfg.encoding);
    Vec r[8], t[8];
    for (int l = 0; l < 8; ++l)
        r[l] = tq.rows[a[l].significand()];
    interleave(r, t);
    interleave(t, r);
    interleave(r, s.terms);
}

/**
 * One PE's set on eight 16-bit lanes at once. q[k] holds every lane's
 * k-th remaining term as 2 * lsb + sign (TermQueues), so q[0] is the
 * pending term: the out-of-bounds compare, the window's MAX and the
 * fire mask are a few vector ops each, and a fired lane advances by
 * shifting its queue. A lane with no pending term reads at or below
 * kDead.
 */
void
FPRakerValueMac::processSet8(const SerialSet &s, const BFloat16 *b)
{
    constexpr int16_t kDead = -0x4000;
    ExtendedAccumulator &reg = acc_.chunkRegister();
    Vec va, vb;
    std::memcpy(&va, s.a, sizeof va);
    std::memcpy(&vb, b, sizeof vb);

    const Vec ea = va & 0x7f80;
    const Vec eb = vb & 0x7f80;
    if (anyElement((ea == 0x7f80) | (eb == 0x7f80)))
        checkFinite(s.a, b, 8);

    // Exponent block: the accumulator aligns up to the largest
    // non-zero product exponent.
    const Vec ab = (ea >> 7) + (eb >> 7) - 2 * BFloat16::kBias;
    const Vec bZero = (vb & 0x7fff) == 0;
    const Vec idle = ((va & 0x7fff) == 0) | bZero;
    int emax = reg.exponent();
    if (!allElements(idle))
        emax = std::max(emax,
                        maxElement(select(idle, splat(INT16_MIN), ab)));
    reg.alignTo(emax);

    const Vec bSig = ((vb & 0x7f) | 0x80) & ~bZero;
    const Vec prodNeg = ((va ^ vb) >> 15) & 1;
    const Vec base2 = (ab - 7) << 1;

    Vec q[8];
    const int depth = queues_->depth;
    for (int k = 0; k < depth; ++k)
        q[k] = (s.terms[k] + base2) ^ prodNeg;

    // Out of bounds: lsb < e_acc - 7 - threshold, i.e. k past the
    // threshold. Clamped: no live LSB sits outside [-300, 300]. Within
    // the set only addValue moves e_acc, so the bound is refreshed
    // after an add that moved it; read from the register every cycle,
    // it would hold each cycle's vector work behind the previous add.
    const auto obBound = [this](int e_acc) {
        return splat(2 * static_cast<int>(std::clamp<int64_t>(
                             int64_t{e_acc} - 7 - obThreshold_, -8192,
                             8191)));
    };
    int eAcc = reg.exponent();
    Vec ob = obBound(eAcc);
    for (;;) {
        if (skipOb_)
            q[0] = select(q[0] < ob, splat(kDead), q[0]);
        const int top = maxElement(q[0]);
        if (top <= kDead)
            break;

        // The window: lanes with lsb >= (top lsb) - maxDelta fire.
        // Their exact sum is taken on that bound's scale rather than
        // on the lowest fired LSB: the same value, so addValue rounds
        // it the same way.
        const int ref = (top >> 1) - maxDelta_;
        const Vec fire = q[0] > splat(2 * ref - 1);
        const Vec shift = (q[0] >> 1) - splat(ref);
        Vec c = bSig; // b << shift, at most 255 << 4.
        if (maxDelta_ >= 1)
            c += c & bit<0>(shift);
        if (maxDelta_ >= 2)
            c = select(bit<1>(shift), c << 2, c);
        if (maxDelta_ >= 4)
            c = select(bit<2>(shift), c << 4, c);
        const Vec neg = bit<0>(q[0]);
        c = ((c ^ neg) - neg) & fire;
        const int sum = sumElements(c);
        if (sum != 0) {
            reg.addValue(sum < 0, ref,
                         static_cast<uint64_t>(sum < 0 ? -sum : sum));
            if (reg.exponent() != eAcc) {
                eAcc = reg.exponent();
                ob = obBound(eAcc);
            }
        }

        // Fired lanes move to their next term.
        for (int k = 0; k + 1 < depth; ++k)
            q[k] = select(fire, q[k + 1], q[k]);
        q[depth - 1] = select(fire, splat(TermQueues::kNone), q[depth - 1]);
    }
    acc_.tickMacs(8);
}

} // namespace fpraker
