#include "pe/fpraker_pe.h"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>

#include "common/logging.h"

namespace fpraker {

using namespace vec16;

namespace {

/**
 * The adder tree of one PE-cycle past the vector window sums: the
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

/** Per lane l, bit l in every element (bit 15 reads as the sign). */
constexpr auto kLaneBit = [] {
    std::array<Vec, ExponentBlockResult::kMaxLanes> bits{};
    for (size_t l = 0; l < bits.size(); ++l)
        bits[l] = splat(1 << l);
    return bits;
}();

} // namespace

FPRakerColumn::DecodedBLanes::DecodedBLanes(int lanes, int pes)
    : lanes_(lanes), pes_(pes),
      groups_((pes + kGroupPes - 1) / kGroupPes)
{
    panic_if(lanes_ < 1 || lanes_ > kMaxLanes, "unsupported lane count %d",
             lanes_);
    panic_if(pes_ < 1 || pes_ > kMaxPes,
             "column of %d PEs outside 1-%d", pes_, kMaxPes);
    v_.assign(static_cast<size_t>(lanes_ * groups_), Lane{});
}

void
FPRakerColumn::DecodedBLanes::decode(const BFloat16 *b, int b_stride,
                                     int active_lanes)
{
    panic_if(active_lanes < 1 || active_lanes > lanes_,
             "bad active lane count %d", active_lanes);
    active_ = active_lanes;
    // Rows past the column's PEs read as zero operands.
    static constexpr BFloat16 kZeroRow[kMaxLanes] = {};
    for (int g = 0; g < groups_; ++g) {
        const int rows = std::min(kGroupPes, pes_ - g * kGroupPes);
        const BFloat16 *row[kGroupPes];
        for (int i = 0; i < kGroupPes; ++i)
            row[i] = i < rows ? b + static_cast<size_t>(g * kGroupPes + i) *
                                        b_stride
                              : kZeroRow;
        // Gather each active lane's raw bits across the group's rows,
        // then split the fields on whole vectors.
        Lane *out = v_.data() + g * lanes_;
        Vec non_finite = {};
        for (int l = 0; l < active_; ++l) {
            const Vec v = {
                static_cast<int16_t>(row[0][l].bits()),
                static_cast<int16_t>(row[1][l].bits()),
                static_cast<int16_t>(row[2][l].bits()),
                static_cast<int16_t>(row[3][l].bits()),
                static_cast<int16_t>(row[4][l].bits()),
                static_cast<int16_t>(row[5][l].bits()),
                static_cast<int16_t>(row[6][l].bits()),
                static_cast<int16_t>(row[7][l].bits()),
            };
            non_finite |= (v & 0x7f80) == 0x7f80;
            out[l].exp = ((v >> 7) & 0xff) - BFloat16::kBias;
            out[l].sig = ((v & 0x7f) | 0x80) & ~((v & 0x7fff) == 0);
            out[l].neg = v >> 15;
        }
        if (anyElement(non_finite)) {
            for (int i = 0; i < rows; ++i)
                for (int l = 0; l < active_; ++l) {
                    const BFloat16 x =
                        b[static_cast<size_t>(g * kGroupPes + i) * b_stride +
                          l];
                    panic_if(!x.isFinite(),
                             "non-finite PE operand (b=%04x)", x.bits());
                }
        }
    }
}

FPRakerColumn::FPRakerColumn(const PeConfig &cfg, int num_pes)
    : cfg_(cfg), numPes_(num_pes),
      groups_((num_pes + kGroupPes - 1) / kGroupPes),
      vlut_(&ValueLut::of(cfg.encoding)), laneScratch_(cfg.lanes, num_pes)
{
    panic_if(cfg_.maxDelta < 0, "negative shifter window");
    pes_.reserve(static_cast<size_t>(numPes_));
    for (int r = 0; r < numPes_; ++r)
        pes_.push_back(PeState{ChunkedAccumulator(cfg_.acc), PeStats{}});
    masks_.assign(static_cast<size_t>(groups_ * cfg_.lanes), LaneMasks{});
    rows_.assign(static_cast<size_t>(groups_), GroupRows{});
    for (int r = numPes_; r < groups_ * kGroupPes; ++r)
        rows_[static_cast<size_t>(r / kGroupPes)].pad[r % kGroupPes] = -1;
}

void
FPRakerColumn::beginSet(const BFloat16 *a, const BFloat16 *b,
                        int b_stride, int active_lanes)
{
    panic_if(inSet_, "beginSet while a set is in flight");
    laneScratch_.decode(b, b_stride,
                        active_lanes < 0 ? cfg_.lanes : active_lanes);
    beginSet(a, laneScratch_);
}

void
FPRakerColumn::beginSet(const BFloat16 *a, const DecodedBLanes &b)
{
    panic_if(inSet_, "beginSet while a set is in flight");
    panic_if(b.lanes() != cfg_.lanes || b.pes() != numPes_,
             "operands decoded for %d lanes x %d PEs, column is %d x %d",
             b.lanes(), b.pes(), cfg_.lanes, numPes_);
    activeLanes_ = b.activeLanes();
    b_ = &b;
    beginSerial(a);

    // Exponent block: each PE's MAX over its non-zero products is a
    // vertical max across the lane vectors. alignTo stays scalar.
    for (int g = 0; g < groups_; ++g) {
        const DecodedBLanes::Lane *bl = b.group(g);
        GroupRows &rows = rows_[static_cast<size_t>(g)];
        Vec emax = splat(INT16_MIN);
        for (uint32_t m = serial_.nonzero; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            emax = vmax(emax, select(bl[l].sig == 0, splat(INT16_MIN),
                                     splat(serial_.exp[l]) + bl[l].exp));
        }
        const int n = std::min(kGroupPes, numPes_ - g * kGroupPes);
        for (int i = 0; i < n; ++i) {
            ExtendedAccumulator &reg =
                pes_[static_cast<size_t>(g * kGroupPes + i)]
                    .acc.chunkRegister();
            if (emax[i] != INT16_MIN)
                reg.alignTo(emax[i]);
            rows.accExp[i] = static_cast<int16_t>(
                std::max(reg.exponent(), kLanesExpFloor));
        }
        rows.pendN = rows.fireN = rows.obSkipN = Vec{};
        LaneMasks *mk = masks_.data() + g * cfg_.lanes;
        for (uint32_t m = liveMask_; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            mk[l].fired = Vec{};
            mk[l].ob = rows.pad;
        }
    }

    // Before any term fires, settling is the first-term OB pass: every
    // PE owes each live lane's first term, so a term already past the
    // threshold drops the lane at that PE, and a lane every PE drops
    // goes before the first cycle. The set starts settled.
    settle(liveMask_, true);
    // Every busy cycle fires some PE's pending term, and a PE fires
    // each of the set's terms at most once.
    cycleCap_ = numPes_ * (kTermSlots * activeLanes_ -
                           static_cast<int>(serial_.zeroSlots));
    cyclesLeft_ = cycleCap_;
    inSet_ = true;
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

bool
FPRakerColumn::busy() const
{
    return inSet_ && liveMask_ != 0;
}

void
FPRakerColumn::stepCycle()
{
    // No settle on entry: beginSet leaves the set settled and every
    // cycle re-settles on exit, so out-of-bounds state is always
    // current here.
    if (!inSet_ || !liveMask_)
        return;
    --cyclesLeft_;
    panic_if(cyclesLeft_ < 0,
             "column of %d PEs x %d lanes still busy after %d cycles",
             numPes_, activeLanes_, cycleCap_);
    const uint32_t live = liveMask_;
    const uint32_t sgn_mask = serial_.neg ^ curNegMask_;

    // Lanes with d <= base + maxDelta fire. Up to a window of 7, each
    // contributes its B significand shifted left by base + maxDelta - d,
    // signed, so a PE's sum sits on the 2^(-(base + maxDelta) - 7)
    // scale: the value the adder tree sums on its lowest fired LSB,
    // which addValue rounds the same way. Wider windows hand each PE's
    // fired lanes to that adder tree instead.
    const int delta = std::min(cfg_.maxDelta, kLanesWindowCap);
    const bool via_tree = delta > 7;
    const bool wide = !via_tree && cfg_.lanes * (255 << delta) > INT16_MAX;

    uint32_t stalled = 0; // Lanes some PE still owes after this cycle.
    bool moved = false;
    for (int g = 0; g < groups_; ++g) {
        const DecodedBLanes::Lane *bl = b_->group(g);
        LaneMasks *mk = masks_.data() + g * cfg_.lanes;
        GroupRows &rows = rows_[static_cast<size_t>(g)];

        // d = shift - (Ae + Be) of each lane's cursor term. A term's
        // alignment shift is k = e_acc + d, and the window compares k's
        // of one PE, so e_acc cancels out of it. The base is the least
        // d over a PE's pending lanes (d < 300, so adding kNoTerm to
        // the others puts them past any pending d).
        Vec d[kMaxLanes];
        Vec pend[kMaxLanes];
        Vec least = splat(kNoTerm);
        Vec pend_n = rows.pendN;
        for (uint32_t m = live; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            d[l] = splat(curShift_[l] - serial_.exp[l]) - bl[l].exp;
            pend[l] = ~(mk[l].fired | mk[l].ob);
            pend_n -= pend[l];
            least = vmin(least, d[l] + (~pend[l] & kNoTerm));
        }
        rows.pendN = pend_n;

        const Vec lim = least + static_cast<int16_t>(delta);
        Vec fire_n = rows.fireN;
        Vec sum16 = {};
        Vec32 sum32[2] = {};
        Vec pe_fired = {};   // Per PE, the lanes it fired, as bits.
        Vec pe_stalled = {}; // Per PE, the lanes it still owes.
        for (uint32_t m = live; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            const Vec fire = pend[l] & (d[l] <= lim);
            pe_stalled |= pend[l] & ~fire & kLaneBit[l];
            if (via_tree) {
                pe_fired |= fire & kLaneBit[l];
            } else {
                const Vec shift = lim - d[l];
                Vec c = bl[l].sig;
                if (delta >= 1)
                    c += c & bit<0>(shift);
                if (delta >= 2)
                    c = select(bit<1>(shift), c << 2, c);
                if (delta >= 4)
                    c = select(bit<2>(shift), c << 4, c);
                const Vec neg =
                    bl[l].neg ^ splat((sgn_mask >> l) & 1u ? -1 : 0);
                c = ((c ^ neg) - neg) & fire;
                if (wide) {
                    sum32[0] += widen<0>(c);
                    sum32[1] += widen<1>(c);
                } else {
                    sum16 += c;
                }
            }
            mk[l].fired |= fire;
            fire_n -= fire;
        }
        rows.fireN = fire_n;
        stalled |= orElements(pe_stalled);
        if (trace_)
            traceGroup(g, live, d, pend, lim);

        // One addValue per PE with a non-zero window sum, or one adder
        // tree per PE over its fired lanes.
        const int n = std::min(kGroupPes, numPes_ - g * kGroupPes);
        for (int i = 0; i < n; ++i) {
            ExtendedAccumulator &reg =
                pes_[static_cast<size_t>(g * kGroupPes + i)]
                    .acc.chunkRegister();
            const int before = reg.exponent();
            if (via_tree) {
                AdderTree tree;
                for (uint32_t m = static_cast<uint16_t>(pe_fired[i]); m;
                     m &= m - 1) {
                    const int l = std::countr_zero(m);
                    tree.add(static_cast<uint8_t>(bl[l].sig[i]),
                             serial_.exp[l] + bl[l].exp[i] - curShift_[l] -
                                 7,
                             ((bl[l].neg[i] ^ (sgn_mask >> l)) & 1) != 0);
                }
                tree.addTo(reg);
            } else if (const int s = wide ? sum32[i / 4][i % 4] : sum16[i]) {
                reg.addValue(s < 0, -lim[i] - 7,
                             static_cast<uint64_t>(s < 0 ? -s : s));
            }
            if (reg.exponent() != before) {
                moved = true;
                rows.accExp[i] = static_cast<int16_t>(
                    std::max(reg.exponent(), kLanesExpFloor));
            }
        }
    }

    // Out-of-bounds verdicts change only where an accumulator exponent
    // moved, and otherwise a lane can only advance once no PE owes its
    // term (a settled lane always had one that did) — so the
    // end-of-cycle settle usually touches just the lanes that every
    // owing PE fired.
    settle(moved ? liveMask_ : live & ~stalled, moved);
}

void
FPRakerColumn::settle(uint32_t mask, bool moved)
{
    const int lanes = cfg_.lanes;
    const int groups = groups_;
    const Vec thr =
        splat(std::min(cfg_.effectiveObThreshold(), kLanesThrCap));
    GroupRows *rows = rows_.data();
    for (mask &= liveMask_; mask; mask &= mask - 1) {
        const int l = std::countr_zero(mask);
        const uint32_t bit = 1u << l;
        LaneStream &s = streams_[l];
        const TermStream &ts = *s.terms;
        // Lane l of group g is element g * lanes of these.
        LaneMasks *mk = masks_.data() + l;
        const DecodedBLanes::Lane *bl = b_->group(0) + l;
        const int ae = serial_.exp[l];
        // A PE's out-of-bounds verdict on the cursor term can change
        // only with the term or with the PE's accumulator exponent, so
        // a lane whose term stays put needs no new one unless an
        // exponent moved.
        bool check = cfg_.skipOutOfBounds && moved;
        for (;;) {
            // The PEs of group g that still owe the cursor term (neither
            // fired it nor dropped the stream), once those it is
            // out-of-bounds at have dropped it: one compare per group.
            // Terms stream MSB-first, so a dropping PE skips the rest
            // of the stream.
            const Vec dt = splat(curShift_[l] - ae);
            const Vec rest = splat(ts.size() - s.cursor);
            auto owing = [&](int g) {
                LaneMasks &m = mk[g * lanes];
                Vec owe = ~(m.fired | m.ob);
                if (check) {
                    const Vec drop =
                        owe & (rows[g].accExp + (dt - bl[g * lanes].exp) >
                               thr);
                    m.ob |= drop;
                    rows[g].obSkipN += drop & rest;
                    owe &= ~drop;
                }
                return owe;
            };
            Vec owe_any = owing(0);
            Vec all_ob = mk[0].ob;
            for (int g = 1; g < groups; ++g) {
                owe_any |= owing(g);
                all_ob &= mk[g * lanes].ob;
            }
            if (anyElement(owe_any))
                break;
            if (allElements(all_ob)) {
                // Every PE dropped the lane: the shared encoder drops
                // the rest of the stream.
                s.cursor = ts.size();
                liveMask_ &= ~bit;
                break;
            }
            ++s.cursor;
            for (int g = 0; g < groups; ++g)
                mk[g * lanes].fired = Vec{};
            if (s.cursor >= ts.size()) {
                liveMask_ &= ~bit;
                break;
            }
            const Term &t = ts[s.cursor];
            curShift_[l] = t.shift;
            curNegMask_ = (curNegMask_ & ~bit) | (t.neg ? bit : 0u);
            check = cfg_.skipOutOfBounds;
        }
    }
}

void
FPRakerColumn::traceGroup(int g, uint32_t live, const Vec *d,
                          const Vec *pend, const Vec &lim) const
{
    const int delta = std::min(cfg_.maxDelta, kLanesWindowCap);
    const int n = std::min(kGroupPes, numPes_ - g * kGroupPes);
    for (int i = 0; i < n; ++i) {
        PeCycleTrace tr;
        tr.cycle = setCycles();
        tr.pe = g * kGroupPes + i;
        tr.accExp = pes_[static_cast<size_t>(tr.pe)]
                        .acc.chunkRegister()
                        .exponent();
        tr.action.assign(static_cast<size_t>(cfg_.lanes),
                         PeCycleTrace::LaneAction::Idle);
        tr.k.assign(static_cast<size_t>(cfg_.lanes), 0);
        for (uint32_t m = live; m; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (!pend[l][i])
                continue;
            tr.base = tr.accExp + lim[i] - delta;
            tr.action[static_cast<size_t>(l)] =
                d[l][i] <= lim[i] ? PeCycleTrace::LaneAction::Fired
                                  : PeCycleTrace::LaneAction::ShiftStall;
            tr.k[static_cast<size_t>(l)] = tr.accExp + d[l][i];
        }
        trace_(tr);
    }
}

int
FPRakerColumn::finishSet()
{
    panic_if(!inSet_, "finishSet without beginSet");
    // (An entire set may be OB-retired in beginSet itself, in which
    // case the loop body never runs.)
    while (busy())
        stepCycle();

    // The set's counters into each PE's PeStats, with the exponent
    // block's floor.
    int cycles = setCycles();
    const uint64_t lane_cycles =
        static_cast<uint64_t>(cycles) * activeLanes_;
    const uint64_t floor_lanes =
        cycles < cfg_.exponentFloor
            ? static_cast<uint64_t>(cfg_.exponentFloor - cycles) *
                  activeLanes_
            : 0;
    cycles = std::max(cycles, cfg_.exponentFloor);
    for (int r = 0; r < numPes_; ++r) {
        const GroupRows &rows = rows_[static_cast<size_t>(r / kGroupPes)];
        const int i = r % kGroupPes;
        PeStats &s = pes_[static_cast<size_t>(r)].stats;
        const uint64_t pend = static_cast<uint16_t>(rows.pendN[i]);
        const uint64_t fired = static_cast<uint16_t>(rows.fireN[i]);
        s.laneUseful += fired;
        s.termsProcessed += fired;
        s.laneShiftRange += pend - fired;
        s.laneNoTerm += lane_cycles - pend;
        s.termsObSkipped += static_cast<uint16_t>(rows.obSkipN[i]);
        s.termsZeroSkipped += serial_.zeroSlots;
        s.sets += 1;
        s.macs += static_cast<uint64_t>(activeLanes_);
        s.laneExponent += floor_lanes;
        s.setCycles += static_cast<uint64_t>(cycles);
        pes_[static_cast<size_t>(r)].acc.tickMacs(activeLanes_);
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
