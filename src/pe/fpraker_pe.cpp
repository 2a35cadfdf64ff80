#include "pe/fpraker_pe.h"

#include <algorithm>
#include <bit>
#include <climits>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "common/logging.h"

namespace fpraker {

namespace {

/**
 * The adder tree of one PE-cycle, shared by both column bodies: the
 * fired lanes' contributions, bSig x 2^lsb each, added in lane order.
 */
struct AdderTree
{
    static constexpr int kMax = ExponentBlockResult::kMaxLanes;
    int lsb[kMax];
    uint8_t sig[kMax];
    uint32_t neg = 0; //!< Bit i: contribution i is negative.
    int n = 0;
    int lo = INT_MAX; //!< Lowest LSB.
    int hi = INT_MIN; //!< Highest LSB.

    void
    add(uint8_t b_sig, int lsb_exp, bool negative)
    {
        sig[n] = b_sig;
        lsb[n] = lsb_exp;
        neg |= static_cast<uint32_t>(negative) << n;
        ++n;
        lo = std::min(lo, lsb_exp);
        hi = std::max(hi, lsb_exp);
    }

    /**
     * Add the contributions to @p reg. While their LSBs (zero
     * significands included) span at most 48 bits, the tree is an
     * exact int64 sum added once on the lowest LSB; wider trees (the
     * Bit-Pragmatic PE's unrestricted shifters) add contribution by
     * contribution.
     */
    void
    addTo(ExtendedAccumulator &reg) const
    {
        if (n == 0)
            return;
        if (hi - lo > 48) {
            for (int i = 0; i < n; ++i)
                if (sig[i] != 0)
                    reg.addValue((neg >> i) & 1u, lsb[i], sig[i]);
            return;
        }
        int64_t sum = 0;
        for (int i = 0; i < n; ++i) {
            const int64_t c = static_cast<int64_t>(sig[i]) << (lsb[i] - lo);
            sum += (neg >> i) & 1u ? -c : c;
        }
        if (sum != 0)
            reg.addValue(sum < 0, lo,
                         static_cast<uint64_t>(sum < 0 ? -sum : sum));
    }
};

} // namespace

FPRakerColumn::FPRakerColumn(const PeConfig &cfg, int num_pes)
    : cfg_(cfg), numPes_(num_pes), vlut_(&ValueLut::of(cfg.encoding))
{
    panic_if(cfg_.lanes < 1 || cfg_.lanes > kMaxLanes,
             "unsupported lane count %d", cfg_.lanes);
    panic_if(numPes_ < 1, "column needs at least one PE");
    panic_if(numPes_ > 64,
             "column of %d PEs exceeds the 64-PE transposed-mask limit",
             numPes_);
    panic_if(cfg_.maxDelta < 0, "negative shifter window");
    peAll_ = numPes_ == 64 ? ~0ull : (1ull << numPes_) - 1;
    pes_.reserve(static_cast<size_t>(numPes_));
    for (int r = 0; r < numPes_; ++r)
        pes_.emplace_back(cfg_.acc);
#ifdef __SSE2__
    // The PE-parallel body holds 8 lanes of two 8-PE halves.
    peParallel_ = cfg_.lanes == DecodedBLanes::kLanes &&
                  numPes_ <= DecodedBLanes::kPes &&
                  slab::activeTier() != slab::SimdTier::Scalar;
#endif
    halves_ = numPes_ > 8 ? 2 : 1;
    for (int r = 0; r < LaneState::kPes; ++r)
        lanes_.pad[r] = r < numPes_ ? int16_t(0) : int16_t(-1);
}

void
FPRakerColumn::beginSet(const BFloat16 *a, const BFloat16 *b,
                        int b_stride, int active_lanes)
{
    panic_if(inSet_, "beginSet while a set is in flight");
    activeLanes_ = active_lanes < 0 ? cfg_.lanes : active_lanes;
    panic_if(activeLanes_ < 1 || activeLanes_ > cfg_.lanes,
             "bad active lane count %d", activeLanes_);
    if (activeLanes_ == cfg_.lanes && peParallel()) {
        decodeBLanes(b, b_stride, numPes_, &laneScratch_);
        beginSetLanes(a, laneScratch_);
        return;
    }

    beginSerial(a);
    for (int l = 0; l < activeLanes_; ++l) {
        firedPes_[l] = 0;
        obPes_[l] = 0;
    }

    // The post-set settle is folded in: before any term fires the only
    // possible encoder feedback is a first-term out-of-bounds flag (and
    // the consensus drop when every PE raises it), so both are resolved
    // here and the set starts settled.
    const int thr =
        cfg_.skipOutOfBounds ? cfg_.effectiveObThreshold() : INT_MAX;
    // The B-side fields are one load each from the decoded-value table.
    const ValueLut &bvals = ValueLut::bDecode();
    uint32_t all_ob = liveMask_;
    for (int r = 0; r < numPes_; ++r) {
        PeState &pe = pes_[static_cast<size_t>(r)];
        const BFloat16 *brow = b + static_cast<size_t>(r) * b_stride;
        int emax = pe.acc.chunkRegister().exponent();
        uint32_t b_neg = 0;
        for (int l = 0; l < activeLanes_; ++l) {
            const ValueLut::Entry &e = bvals.entry(brow[l].bits());
            panic_if(!(e.flags & ValueLut::kFinite),
                     "non-finite PE operand (b=%04x)", brow[l].bits());
            // Zero operands carry an all-zero exponent field; their
            // product exponents are far below any normal value, so the
            // MAX tree ignores them and the out-of-bounds check retires
            // the lane immediately.
            const int ab = serial_.exp[l] + e.unbiasedExp;
            pe.abExp[l] = static_cast<int16_t>(ab);
            pe.bSig[l] = e.sig;
            if (e.flags & ValueLut::kNegative)
                b_neg |= 1u << l;
            if (((serial_.nonzero >> l) & 1u) &&
                !(e.flags & ValueLut::kZero) && ab > emax)
                emax = ab;
        }
        pe.prodNegMask = serial_.neg ^ b_neg;
        pe.firedMask = 0;
        pe.acc.chunkRegister().alignTo(emax);

        uint32_t ob = 0;
        if (thr != INT_MAX) {
            const int acc_exp = pe.acc.chunkRegister().exponent();
            for (uint32_t m = liveMask_; m; m &= m - 1) {
                const int l = std::countr_zero(m);
                if (acc_exp - pe.abExp[l] + curShift_[l] > thr) {
                    ob |= 1u << l;
                    pe.stats.termsObSkipped += serial_.nterms[l];
                    obPes_[l] |= 1ull << r;
                }
            }
        }
        pe.obMask = ob;
        all_ob &= ob;

        pe.stats.termsZeroSkipped += serial_.zeroSlots;
        pe.stats.sets += 1;
        pe.stats.macs += static_cast<uint64_t>(activeLanes_);
    }

    // Consensus drop of lanes every PE flagged on their first term.
    for (uint32_t m = all_ob; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        streams_[l].cursor = streams_[l].terms->size();
    }
    liveMask_ &= ~all_ob;

    setCycles_ = 0;
    inSet_ = true;
    lanesSet_ = false;
}

#ifdef __SSE2__

namespace {

__m128i
load16(const int16_t *p)
{
    return _mm_load_si128(reinterpret_cast<const __m128i *>(p));
}

void
store16(int16_t *p, __m128i v)
{
    _mm_store_si128(reinterpret_cast<__m128i *>(p), v);
}

/** Elements of @p a where @p m is set, else those of @p b. */
__m128i
select16(__m128i m, __m128i a, __m128i b)
{
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
}

/** -1 in the elements of @p x with bit @p B set, else 0. */
template <int B>
__m128i
bit16(__m128i x)
{
    return _mm_srai_epi16(_mm_slli_epi16(x, 15 - B), 15);
}

/** Transpose an 8 x 8 block of 16-bit elements held in @p r. */
void
transpose8x8(__m128i r[8])
{
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
    for (int i = 0; i < 4; ++i) {
        r[2 * i] = _mm_unpacklo_epi64(u[i], u[i + 4]);
        r[2 * i + 1] = _mm_unpackhi_epi64(u[i], u[i + 4]);
    }
}

} // namespace

#endif // __SSE2__

void
FPRakerColumn::decodeBLanes(const BFloat16 *b, int b_stride, int rows,
                            DecodedBLanes *out)
{
    constexpr int kLanes = DecodedBLanes::kLanes;
    panic_if(rows < 1 || rows > DecodedBLanes::kPes,
             "%d rows exceed the lane-major layout", rows);
#ifdef __SSE2__
    // Each 8-row half transposes into one vector per lane, holding
    // that lane's raw bits across the half's PEs; the field split then
    // runs on whole vectors.
    const __m128i expField = _mm_set1_epi16(0x7f80);
    for (int h = 0; h * 8 < rows; ++h) {
        __m128i v[8];
        for (int i = 0; i < 8; ++i) {
            const int r = h * 8 + i;
            v[i] = r < rows
                       ? _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                             b + static_cast<size_t>(r) * b_stride))
                       : _mm_setzero_si128();
        }
        transpose8x8(v);
        __m128i nonFinite = _mm_setzero_si128();
        for (int l = 0; l < kLanes; ++l) {
            nonFinite = _mm_or_si128(
                nonFinite,
                _mm_cmpeq_epi16(_mm_and_si128(v[l], expField), expField));
            const __m128i zero = _mm_cmpeq_epi16(
                _mm_and_si128(v[l], _mm_set1_epi16(0x7fff)),
                _mm_setzero_si128());
            store16(out->exp[l] + 8 * h,
                    _mm_sub_epi16(_mm_and_si128(_mm_srli_epi16(v[l], 7),
                                                _mm_set1_epi16(0xff)),
                                  _mm_set1_epi16(BFloat16::kBias)));
            store16(out->sig[l] + 8 * h,
                    _mm_andnot_si128(
                        zero,
                        _mm_or_si128(
                            _mm_and_si128(v[l], _mm_set1_epi16(0x7f)),
                            _mm_set1_epi16(0x80))));
            store16(out->neg[l] + 8 * h, _mm_srai_epi16(v[l], 15));
        }
        if (_mm_movemask_epi8(nonFinite)) {
            for (int r = h * 8; r < std::min(rows, h * 8 + 8); ++r)
                for (int l = 0; l < kLanes; ++l) {
                    const BFloat16 x =
                        b[static_cast<size_t>(r) * b_stride + l];
                    panic_if(!x.isFinite(),
                             "non-finite PE operand (b=%04x)", x.bits());
                }
        }
    }
#else
    // Only the PE-parallel body reads this layout, and it needs SSE2.
    (void)b;
    (void)b_stride;
    (void)out;
    (void)kLanes;
    panic("the lane-major B layout needs SSE2");
#endif // __SSE2__
}

void
FPRakerColumn::beginSerial(const BFloat16 *a)
{
    // The serial operands are shared by every PE in the column: hoist
    // their exponents, signs, and term streams out of the per-PE loops.
    serial_.neg = 0;
    serial_.nonzero = 0;
    serial_.zeroSlots = 0;
    liveMask_ = 0;
    curNegMask_ = 0;
    for (int l = 0; l < activeLanes_; ++l) {
        // The value memoization grain: every field this loop used to
        // re-derive per value (term schedule, exponents, sign/zero
        // class, first-term shift) is one decoded-table load.
        const ValueLut::Entry &e = vlut_->entry(a[l].bits());
        panic_if(!(e.flags & ValueLut::kFinite),
                 "non-finite PE operand (a=%04x)", a[l].bits());
        streams_[l].terms = e.stream;
        streams_[l].cursor = 0;
        serial_.nterms[l] = e.nterms;
        if (e.nterms) {
            liveMask_ |= 1u << l;
            curShift_[l] = e.shift0;
            if ((*e.stream)[0].neg)
                curNegMask_ |= 1u << l;
        }
        serial_.exp[l] = e.unbiasedExp;
        if (e.flags & ValueLut::kNegative)
            serial_.neg |= 1u << l;
        if (!(e.flags & ValueLut::kZero))
            serial_.nonzero |= 1u << l;
        serial_.zeroSlots += static_cast<uint64_t>(kTermSlots - e.nterms);
    }
}

void
FPRakerColumn::beginSetLanes(const BFloat16 *a, const DecodedBLanes &b)
{
    panic_if(inSet_, "beginSet while a set is in flight");
    panic_if(!peParallel(), "column does not run the PE-parallel body");
    activeLanes_ = DecodedBLanes::kLanes;
    lanes_.b = &b;
    beginSerial(a);
#ifdef __SSE2__
    if (halves_ == 1)
        beginLanes<1>();
    else
        beginLanes<2>();
#endif
    setCycles_ = 0;
    inSet_ = true;
    lanesSet_ = true;
}

#ifdef __SSE2__

template <int G>
void
FPRakerColumn::beginLanes()
{
    LaneState &st = lanes_;
    const DecodedBLanes &b = *st.b;

    // Exponent block: each PE's MAX over its non-zero products is a
    // vertical max across the lane vectors. alignTo stays scalar.
    __m128i emax[G];
    for (int h = 0; h < G; ++h)
        emax[h] = _mm_set1_epi16(INT16_MIN);
    for (uint32_t m = serial_.nonzero; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        const __m128i ae = _mm_set1_epi16(serial_.exp[l]);
        for (int h = 0; h < G; ++h) {
            const __m128i bzero = _mm_cmpeq_epi16(load16(b.sig[l] + 8 * h),
                                                  _mm_setzero_si128());
            emax[h] = _mm_max_epi16(
                emax[h],
                select16(bzero, _mm_set1_epi16(INT16_MIN),
                         _mm_add_epi16(ae, load16(b.exp[l] + 8 * h))));
        }
    }
    alignas(16) int16_t pe_max[8 * G];
    for (int h = 0; h < G; ++h)
        store16(pe_max + 8 * h, emax[h]);
    for (int r = 0; r < numPes_; ++r) {
        ExtendedAccumulator &reg = pes_[static_cast<size_t>(r)]
                                       .acc.chunkRegister();
        if (pe_max[r] != INT16_MIN)
            reg.alignTo(pe_max[r]);
        st.accExp[r] = static_cast<int16_t>(
            std::max(reg.exponent(), kLanesExpFloor));
    }

    for (int h = 0; h < G; ++h) {
        store16(st.pendN + 8 * h, _mm_setzero_si128());
        store16(st.fireN + 8 * h, _mm_setzero_si128());
        store16(st.obSkipN + 8 * h, _mm_setzero_si128());
    }
    for (uint32_t m = liveMask_; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        for (int h = 0; h < G; ++h) {
            store16(st.fired[l] + 8 * h, _mm_setzero_si128());
            store16(st.ob[l] + 8 * h, load16(st.pad + 8 * h));
        }
    }

    // Before any term fires, settling is the first-term OB pass: every
    // PE owes each live lane's first term, so a term already past the
    // threshold drops the lane at that PE, and a lane every PE drops
    // goes before the first cycle. The set starts settled.
    settleLanes<G>(liveMask_);
}

template <int G>
void
FPRakerColumn::stepLanes()
{
    constexpr int kLanes = DecodedBLanes::kLanes;
    ++setCycles_;
    LaneState &st = lanes_;
    const DecodedBLanes &b = *st.b;
    const uint32_t live = liveMask_;
    const __m128i ones = _mm_set1_epi16(-1);
    const __m128i none = _mm_set1_epi16(INT16_MAX);

    // d = shift - (Ae + Be) of each lane's cursor term. A term's
    // alignment shift is k = e_acc + d, and the window compares k's of
    // one PE, so e_acc cancels out of it. The base is the least d over
    // a PE's pending lanes (d < 300, so adding INT16_MAX to the others
    // saturates them past any pending d).
    __m128i d[kLanes][G];
    __m128i pend[kLanes][G];
    __m128i lim[G];
    __m128i pendN[G];
    for (int h = 0; h < G; ++h) {
        lim[h] = none;
        pendN[h] = load16(st.pendN + 8 * h);
    }
    for (uint32_t m = live; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        const __m128i dt = _mm_set1_epi16(
            static_cast<int16_t>(curShift_[l] - serial_.exp[l]));
        for (int h = 0; h < G; ++h) {
            d[l][h] = _mm_sub_epi16(dt, load16(b.exp[l] + 8 * h));
            pend[l][h] = _mm_andnot_si128(
                _mm_or_si128(load16(st.fired[l] + 8 * h),
                             load16(st.ob[l] + 8 * h)),
                ones);
            pendN[h] = _mm_sub_epi16(pendN[h], pend[l][h]);
            lim[h] = _mm_min_epi16(
                lim[h], _mm_adds_epi16(d[l][h],
                                       _mm_andnot_si128(pend[l][h], none)));
        }
    }

    // Lanes with d <= base + maxDelta fire. Up to a window of 7, each
    // contributes its B significand shifted left by base + maxDelta - d,
    // signed, so a PE's sum sits on the 2^(-(base + maxDelta) - 7)
    // scale: the value the adder tree sums on its lowest fired LSB,
    // which addValue rounds the same way. Wider windows hand each PE's
    // fired lanes to that adder tree instead.
    const int delta = std::min(cfg_.maxDelta, kLanesWindowCap);
    const bool via_tree = delta > 7;
    const bool wide = delta > 4;
    __m128i fireN[G];
    __m128i sum16[G];
    __m128i sum32[G][2];
    uint32_t pe_fired[8 * G] = {}; // Per PE, the lanes it fired.
    for (int h = 0; h < G; ++h) {
        lim[h] = _mm_adds_epi16(lim[h], _mm_set1_epi16(
                                            static_cast<int16_t>(delta)));
        fireN[h] = load16(st.fireN + 8 * h);
        sum16[h] = _mm_setzero_si128();
        sum32[h][0] = sum32[h][1] = _mm_setzero_si128();
    }
    const uint32_t sgn_mask = serial_.neg ^ curNegMask_;
    uint32_t fired_union = 0;
    for (uint32_t m = live; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        const __m128i sgn =
            _mm_set1_epi16((sgn_mask >> l) & 1u ? int16_t(-1) : int16_t(0));
        int any = 0;
        for (int h = 0; h < G; ++h) {
            const __m128i fire = _mm_andnot_si128(
                _mm_cmpgt_epi16(d[l][h], lim[h]), pend[l][h]);
            if (via_tree) {
                for (uint32_t pm = static_cast<uint32_t>(_mm_movemask_epi8(
                         _mm_packs_epi16(fire, _mm_setzero_si128())));
                     pm; pm &= pm - 1)
                    pe_fired[8 * h + std::countr_zero(pm)] |= 1u << l;
            } else {
                const __m128i shift = _mm_sub_epi16(lim[h], d[l][h]);
                __m128i c = load16(b.sig[l] + 8 * h);
                if (delta >= 1)
                    c = _mm_add_epi16(c, _mm_and_si128(c, bit16<0>(shift)));
                if (delta >= 2)
                    c = select16(bit16<1>(shift), _mm_slli_epi16(c, 2), c);
                if (delta >= 4)
                    c = select16(bit16<2>(shift), _mm_slli_epi16(c, 4), c);
                const __m128i neg =
                    _mm_xor_si128(load16(b.neg[l] + 8 * h), sgn);
                c = _mm_and_si128(
                    _mm_sub_epi16(_mm_xor_si128(c, neg), neg), fire);
                if (wide) {
                    sum32[h][0] = _mm_add_epi32(
                        sum32[h][0],
                        _mm_srai_epi32(_mm_unpacklo_epi16(c, c), 16));
                    sum32[h][1] = _mm_add_epi32(
                        sum32[h][1],
                        _mm_srai_epi32(_mm_unpackhi_epi16(c, c), 16));
                } else {
                    sum16[h] = _mm_add_epi16(sum16[h], c);
                }
            }
            store16(st.fired[l] + 8 * h,
                    _mm_or_si128(load16(st.fired[l] + 8 * h), fire));
            fireN[h] = _mm_sub_epi16(fireN[h], fire);
            any |= _mm_movemask_epi8(fire);
        }
        if (any)
            fired_union |= 1u << l;
    }

    // One addValue per PE with a non-zero window sum, or one adder
    // tree per PE over its fired lanes.
    alignas(16) int32_t sums[8 * G];
    alignas(16) int16_t bases[8 * G];
    for (int h = 0; h < G; ++h) {
        store16(st.pendN + 8 * h, pendN[h]);
        store16(st.fireN + 8 * h, fireN[h]);
        if (via_tree)
            continue;
        store16(bases + 8 * h, lim[h]);
        if (!wide) {
            sum32[h][0] = _mm_srai_epi32(
                _mm_unpacklo_epi16(sum16[h], sum16[h]), 16);
            sum32[h][1] = _mm_srai_epi32(
                _mm_unpackhi_epi16(sum16[h], sum16[h]), 16);
        }
        _mm_store_si128(reinterpret_cast<__m128i *>(sums + 8 * h),
                        sum32[h][0]);
        _mm_store_si128(reinterpret_cast<__m128i *>(sums + 8 * h + 4),
                        sum32[h][1]);
    }
    bool moved = false;
    for (int r = 0; r < numPes_; ++r) {
        ExtendedAccumulator &reg = pes_[static_cast<size_t>(r)]
                                       .acc.chunkRegister();
        const int before = reg.exponent();
        if (via_tree) {
            AdderTree tree;
            for (uint32_t m = pe_fired[r]; m; m &= m - 1) {
                const int l = std::countr_zero(m);
                tree.add(static_cast<uint8_t>(b.sig[l][r]),
                         serial_.exp[l] + b.exp[l][r] - curShift_[l] - 7,
                         ((b.neg[l][r] ^ (sgn_mask >> l)) & 1) != 0);
            }
            tree.addTo(reg);
        } else if (const int s = sums[r]) {
            reg.addValue(s < 0, -bases[r] - 7,
                         static_cast<uint64_t>(s < 0 ? -s : s));
        }
        if (reg.exponent() != before) {
            moved = true;
            st.accExp[r] = static_cast<int16_t>(
                std::max(reg.exponent(), kLanesExpFloor));
        }
    }

    // As in the scalar body: only fired lanes can advance, and OB
    // verdicts change only where an accumulator exponent moved.
    settleLanes<G>(moved ? liveMask_ : fired_union);
}

template <int G>
void
FPRakerColumn::settleLanes(uint32_t mask)
{
    LaneState &st = lanes_;
    const DecodedBLanes &b = *st.b;
    const bool do_ob = cfg_.skipOutOfBounds;
    const __m128i thr = _mm_set1_epi16(static_cast<int16_t>(
        std::min(cfg_.effectiveObThreshold(), kLanesThrCap)));
    const __m128i ones = _mm_set1_epi16(-1);
    for (mask &= liveMask_; mask; mask &= mask - 1) {
        const int l = std::countr_zero(mask);
        const uint32_t bit = 1u << l;
        LaneStream &s = streams_[l];
        const TermStream &ts = *s.terms;
        for (;;) {
            // One compare over the PEs that still owe the cursor term
            // (neither fired it nor dropped the stream).
            const __m128i dt = _mm_set1_epi16(
                static_cast<int16_t>(curShift_[l] - serial_.exp[l]));
            __m128i owe_any = _mm_setzero_si128();
            __m128i all_ob = ones;
            for (int h = 0; h < G; ++h) {
                __m128i ob = load16(st.ob[l] + 8 * h);
                __m128i owe = _mm_andnot_si128(
                    _mm_or_si128(load16(st.fired[l] + 8 * h), ob), ones);
                if (do_ob) {
                    const __m128i k = _mm_add_epi16(
                        load16(st.accExp + 8 * h),
                        _mm_sub_epi16(dt, load16(b.exp[l] + 8 * h)));
                    const __m128i drop =
                        _mm_and_si128(owe, _mm_cmpgt_epi16(k, thr));
                    if (_mm_movemask_epi8(drop)) {
                        // Terms stream MSB-first: the rest of the
                        // stream is out-of-bounds at these PEs too.
                        ob = _mm_or_si128(ob, drop);
                        store16(st.ob[l] + 8 * h, ob);
                        store16(st.obSkipN + 8 * h,
                                _mm_add_epi16(
                                    load16(st.obSkipN + 8 * h),
                                    _mm_and_si128(
                                        drop,
                                        _mm_set1_epi16(static_cast<int16_t>(
                                            ts.size() - s.cursor)))));
                        owe = _mm_andnot_si128(drop, owe);
                    }
                }
                owe_any = _mm_or_si128(owe_any, owe);
                all_ob = _mm_and_si128(all_ob, ob);
            }
            if (_mm_movemask_epi8(owe_any))
                break;
            if (_mm_movemask_epi8(all_ob) == 0xffff) {
                // Every PE dropped the lane: the shared encoder drops
                // the rest of the stream.
                s.cursor = ts.size();
                liveMask_ &= ~bit;
                break;
            }
            ++s.cursor;
            for (int h = 0; h < G; ++h)
                store16(st.fired[l] + 8 * h, _mm_setzero_si128());
            if (s.cursor >= ts.size()) {
                liveMask_ &= ~bit;
                break;
            }
            const Term &t = ts[s.cursor];
            curShift_[l] = t.shift;
            curNegMask_ = (curNegMask_ & ~bit) | (t.neg ? bit : 0u);
        }
    }
}

#endif // __SSE2__

void
FPRakerColumn::finishLanes()
{
    const LaneState &st = lanes_;
    const uint64_t lane_cycles =
        static_cast<uint64_t>(setCycles_) * DecodedBLanes::kLanes;
    for (int r = 0; r < numPes_; ++r) {
        PeStats &s = pes_[static_cast<size_t>(r)].stats;
        const uint64_t pend = static_cast<uint16_t>(st.pendN[r]);
        const uint64_t fired = static_cast<uint16_t>(st.fireN[r]);
        s.laneUseful += fired;
        s.termsProcessed += fired;
        s.laneShiftRange += pend - fired;
        s.laneNoTerm += lane_cycles - pend;
        s.termsObSkipped += static_cast<uint16_t>(st.obSkipN[r]);
        s.termsZeroSkipped += serial_.zeroSlots;
        s.sets += 1;
        s.macs += DecodedBLanes::kLanes;
    }
}

void
FPRakerColumn::settleLane(int l, int thr)
{
    LaneStream &s = streams_[l];
    const TermStream &ts = *s.terms;
    const uint32_t bit = 1u << l;
    for (;;) {
        const int shift = ts[s.cursor].shift;
        // The transposed masks resolve the cursor term's status with
        // mask algebra: only PEs that have neither consumed the term
        // nor dropped the stream still need an out-of-bounds verdict —
        // usually none, because settle runs right after the term fired
        // everywhere it could. Accumulator exponents are constant
        // while settling, so they are read straight off the PEs.
        bool consumed = true;
        for (uint64_t m = peAll_ & ~obPes_[l] & ~firedPes_[l]; m;
             m &= m - 1) {
            const int r = std::countr_zero(m);
            PeState &pe = pes_[static_cast<size_t>(r)];
            const int k = pe.acc.chunkRegister().exponent() -
                          pe.abExp[l] + shift;
            if (k > thr) {
                // Terms stream MSB-first, so every remaining term of
                // this pair is guaranteed out-of-bounds too.
                pe.obMask |= bit;
                obPes_[l] |= 1ull << r;
                pe.stats.termsObSkipped +=
                    static_cast<uint64_t>(ts.size() - s.cursor);
            } else {
                consumed = false;
            }
        }
        if (!consumed)
            return;
        if (obPes_[l] == peAll_) {
            // The shared encoder drops the rest of the stream once
            // every PE in the column has flagged the lane.
            s.cursor = ts.size();
            liveMask_ &= ~bit;
            return;
        }
        ++s.cursor;
        for (uint64_t m = firedPes_[l]; m; m &= m - 1)
            pes_[static_cast<size_t>(std::countr_zero(m))].firedMask &=
                ~bit;
        firedPes_[l] = 0;
        if (s.cursor >= ts.size()) {
            liveMask_ &= ~bit;
            return;
        }
        const Term &t = ts[s.cursor];
        curShift_[l] = t.shift;
        curNegMask_ = (curNegMask_ & ~bit) | (t.neg ? bit : 0u);
    }
}

void
FPRakerColumn::settle(uint32_t mask)
{
    const int thr =
        cfg_.skipOutOfBounds ? cfg_.effectiveObThreshold() : INT_MAX;
    for (mask &= liveMask_; mask; mask &= mask - 1)
        settleLane(std::countr_zero(mask), thr);
}

bool
FPRakerColumn::busy() const
{
    return inSet_ && liveMask_ != 0;
}

void
FPRakerColumn::emitTrace(int r, int acc_exp, int base, uint32_t pend,
                         uint32_t fire, const int *k_of) const
{
    PeCycleTrace tr;
    tr.cycle = setCycles_;
    tr.pe = r;
    tr.base = base;
    tr.accExp = acc_exp;
    tr.action.assign(static_cast<size_t>(cfg_.lanes),
                     PeCycleTrace::LaneAction::Idle);
    tr.k.assign(static_cast<size_t>(cfg_.lanes), 0);
    for (uint32_t m = pend; m; m &= m - 1) {
        const int l = std::countr_zero(m);
        tr.action[static_cast<size_t>(l)] =
            (fire >> l) & 1u ? PeCycleTrace::LaneAction::Fired
                             : PeCycleTrace::LaneAction::ShiftStall;
        tr.k[static_cast<size_t>(l)] = k_of[l];
    }
    trace_(tr);
}

void
FPRakerColumn::stepCycle()
{
    if (!inSet_)
        return;

    // No settle on entry: beginSet leaves the set settled and every
    // cycle re-settles on exit, so out-of-bounds state is always
    // current here.
    if (!liveMask_)
        return;

#ifdef __SSE2__
    if (lanesSet_) {
        if (halves_ == 1)
            stepLanes<1>();
        else
            stepLanes<2>();
        return;
    }
#endif

    ++setCycles_;
    uint32_t firedUnion = 0;
    bool expMoved = false;
    const bool tracing = static_cast<bool>(trace_);
    for (int r = 0; r < numPes_; ++r) {
        PeState &pe = pes_[static_cast<size_t>(r)];
        ExtendedAccumulator &reg = pe.acc.chunkRegister();
        const int acc_exp = reg.exponent();
        const uint32_t pend = liveMask_ & ~pe.firedMask & ~pe.obMask;

        if (!pend) {
            // Nothing to do for this PE this cycle: every lane is either
            // exhausted, retired, or waiting for a sibling PE.
            pe.stats.laneNoTerm += static_cast<uint64_t>(activeLanes_);
            if (tracing)
                emitTrace(r, acc_exp, 0, 0, 0, nullptr);
            continue;
        }

        // Select the lanes that fire this cycle: those whose alignment
        // shift k lies within maxDelta of the base (minimum) shift.
        // Their contributions go to the adder tree in lane order.
        int k_of[kMaxLanes];
        int base = INT_MAX;
        for (uint32_t m = pend; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            k_of[l] = acc_exp - pe.abExp[l] + curShift_[l];
            base = std::min(base, k_of[l]);
        }
        uint32_t fire = 0;
        AdderTree tree;
        for (uint32_t m = pend; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (k_of[l] - base > cfg_.maxDelta)
                continue;
            fire |= 1u << l;
            firedPes_[l] |= 1ull << r;
            // The LSB of a contribution is (Ae+Be) - t - 7 (equally
            // acc_exp - k - 7: independent of alignment).
            tree.add(pe.bSig[l], pe.abExp[l] - curShift_[l] - 7,
                     ((pe.prodNegMask ^ curNegMask_) >> l) & 1u);
        }
        tree.addTo(reg);
        pe.firedMask |= fire;

        const uint64_t fired_n = static_cast<uint64_t>(tree.n);
        const uint64_t pend_n =
            static_cast<uint64_t>(std::popcount(pend));
        pe.stats.laneUseful += fired_n;
        pe.stats.termsProcessed += fired_n;
        pe.stats.laneShiftRange += pend_n - fired_n;
        pe.stats.laneNoTerm +=
            static_cast<uint64_t>(activeLanes_) - pend_n;
        firedUnion |= fire;
        if (reg.exponent() != acc_exp)
            expMoved = true;

        if (tracing)
            emitTrace(r, acc_exp, base, pend, fire, k_of);
    }

    // Only fired lanes can advance, and out-of-bounds verdicts can only
    // change where an accumulator exponent moved — so the end-of-cycle
    // settle usually touches just the lanes that fired.
    settle(expMoved ? liveMask_ : firedUnion);
}

int
FPRakerColumn::finishSet()
{
    panic_if(!inSet_, "finishSet without beginSet");
    // (An entire set may be OB-retired in beginSet itself, in which
    // case the loop body never runs.)
    while (busy())
        stepCycle();
    if (lanesSet_)
        finishLanes();

    int cycles = setCycles_;
    const uint64_t floor_lanes =
        cycles < cfg_.exponentFloor
            ? static_cast<uint64_t>(cfg_.exponentFloor - cycles) *
                  activeLanes_
            : 0;
    if (cycles < cfg_.exponentFloor)
        cycles = cfg_.exponentFloor;
    for (int r = 0; r < numPes_; ++r) {
        pes_[r].stats.laneExponent += floor_lanes;
        pes_[r].stats.setCycles += static_cast<uint64_t>(cycles);
        pes_[r].acc.tickMacs(activeLanes_);
    }
    inSet_ = false;
    return cycles;
}

int
FPRakerColumn::dot(const BFloat16 *a, const BFloat16 *b, int b_stride,
                   size_t len)
{
    const size_t lanes = static_cast<size_t>(cfg_.lanes);
    int cycles = 0;
    for (size_t i = 0; i < len; i += lanes) {
        // Only the final set of the dot can be ragged.
        beginSet(a + i, b + i, b_stride,
                 static_cast<int>(std::min(lanes, len - i)));
        cycles += finishSet();
    }
    return cycles;
}

void
FPRakerColumn::chargeInterPeStall(int cycles)
{
    panic_if(cycles < 0, "negative stall charge");
    for (int r = 0; r < numPes_; ++r) {
        pes_[r].stats.laneInterPe +=
            static_cast<uint64_t>(cycles) * cfg_.lanes;
        pes_[r].stats.setCycles += static_cast<uint64_t>(cycles);
    }
}

ChunkedAccumulator &
FPRakerColumn::accumulator(int pe)
{
    return pes_[static_cast<size_t>(pe)].acc;
}

const ChunkedAccumulator &
FPRakerColumn::accumulator(int pe) const
{
    return pes_[static_cast<size_t>(pe)].acc;
}

void
FPRakerColumn::resetAccumulators()
{
    for (auto &pe : pes_)
        pe.acc.reset();
}

const PeStats &
FPRakerColumn::stats(int pe) const
{
    return pes_[static_cast<size_t>(pe)].stats;
}

PeStats
FPRakerColumn::aggregateStats() const
{
    PeStats agg;
    for (const auto &pe : pes_)
        agg.merge(pe.stats);
    return agg;
}

void
FPRakerColumn::clearStats()
{
    for (auto &pe : pes_)
        pe.stats = PeStats{};
}

FPRakerPe::FPRakerPe(const PeConfig &cfg)
    : column_(cfg, 1)
{
}

int
FPRakerPe::processSet(const MacPair *pairs, int n)
{
    panic_if(n != column_.config().lanes,
             "set arity %d does not match PE lanes %d", n,
             column_.config().lanes);
    BFloat16 a[ExponentBlockResult::kMaxLanes];
    BFloat16 b[ExponentBlockResult::kMaxLanes];
    for (int l = 0; l < n; ++l) {
        a[l] = pairs[l].a;
        b[l] = pairs[l].b;
    }
    return column_.runSet(a, b, n);
}

int
FPRakerPe::dot(const std::vector<BFloat16> &a, const std::vector<BFloat16> &b)
{
    panic_if(a.size() != b.size(), "dot of mismatched lengths %zu vs %zu",
             a.size(), b.size());
    // Batched multi-set walk; ragged tails run as masked sets (padded
    // lanes would be architecturally absent, so they must not show up
    // in cycles or statistics). A single-PE column reads its B stream
    // at the same flat offsets as A, so the row stride is irrelevant.
    return column_.dot(a.data(), b.data(), 0, a.size());
}

} // namespace fpraker
