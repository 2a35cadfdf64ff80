/**
 * @file
 * The FPRaker processing element — the paper's core contribution.
 *
 * An FPRaker PE multiplies 8 bfloat16 (A, B) pairs concurrently and
 * accumulates the result into an extended-precision accumulator. The A
 * significands are recoded on the fly into streams of signed powers of
 * two (terms) and processed term-serially, most-significant first:
 *
 *  - Block 1 (exponent): once per set, product exponents Ae+Be are formed
 *    and compared (with the accumulator exponent) to find emax; the
 *    accumulator is aligned up to emax.
 *  - Block 2 (shift & reduce): each cycle, every lane's pending term
 *    yields an alignment shift k = e_acc - (Ae+Be) + t. A per-cycle base
 *    shift is set to the minimum k; lanes within maxDelta (3) of the base
 *    fire, shifting their B significand by k - base into a small adder
 *    tree whose output the shared base shifter aligns with the
 *    accumulator. Lanes further out stall one cycle (shift-range stall).
 *  - Block 3 (accumulate): the reduced partial sum is added to the
 *    accumulator, which is normalized and rounded (RNE) every step.
 *
 * Terms whose k exceeds the accumulator precision are out-of-bounds: they
 * cannot affect the result, so the lane signals its term encoder and the
 * remainder of the stream is skipped (OB skipping). Because zero operands
 * carry all-zero exponent fields, zero-valued B operands also retire
 * through the OB path.
 *
 * FPRakerColumn models a *column* of PEs that share one A stream and its
 * term encoders (as in the tile): term consumption is lockstepped, and a
 * lane's stream is dropped only when every PE in the column flags it
 * out-of-bounds. FPRakerPe is the single-PE convenience wrapper.
 *
 * Implementation notes (the simulator, not the hardware): the model is
 * bit-identical to the seed algorithm (ReferenceColumn in src/sim/) but
 * restructured for host speed. Lane term streams are read-only pointers
 * into the shared TermLut instead of per-set encoder runs, and the
 * encoder-feedback fixpoint (settle) drains each lane independently
 * instead of rescanning every (PE, lane) pair per iteration — legal
 * because the accumulator exponents are constant between processing
 * cycles, which makes lanes independent inside a settle pass.
 *
 * Because the column's PEs consume each lane's term in lockstep, the
 * column runs lane-major: a cycle is a loop over the live lanes of
 * 16-bit vector ops, each across one group of 8 PEs. The B exponents,
 * significands and signs (DecodedBLanes) and the fired / out-of-bounds
 * masks are held one vector per lane and group, and a product exponent
 * adds the lane's broadcast A exponent. This one body covers every
 * shape and every use:
 *
 *  - a set's active-lane count (ragged dot() tails) bounds the lanes
 *    it decodes and steps, for any lane count from 1 to 16;
 *  - a loop over the 8-PE groups covers columns of up to 64 PEs;
 *  - a trace callback reads each cycle's lane state out, and changes
 *    nothing the cycle computes;
 *  - the vector ops are GCC vector extensions, which every target
 *    compiles (to SSE2 on x86-64); their helpers (pe/vec16.h) are
 *    shared with the value MAC's vector body.
 *
 * Fired lanes reduce in a vector window sum, or, past a window of 7, in
 * one adder tree per PE (an exact sum while their LSBs span at most 48
 * bits). The body is integer-exact, and tests/test_sim.cpp holds it
 * bit-equal to ReferenceColumn. Every busy cycle fires some PE's
 * pending term, so a set takes at most numPes() x its terms cycles;
 * stepCycle panics past that bound rather than loop forever.
 */

#ifndef FPRAKER_PE_FPRAKER_PE_H
#define FPRAKER_PE_FPRAKER_PE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "numeric/term_lut.h"
#include "numeric/value_lut.h"
#include "pe/exponent_block.h"
#include "pe/pe_common.h"
#include "pe/vec16.h"

namespace fpraker {

/** Per-cycle trace record for walkthroughs and deep tests. */
struct PeCycleTrace
{
    /** What a lane did in a traced cycle. */
    enum class LaneAction
    {
        Fired,      //!< Term processed this cycle.
        ShiftStall, //!< Pending term outside the base+maxDelta window.
        Idle,       //!< No term pending (exhausted, fired, or waiting).
        ObRetired,  //!< Lane dropped as out-of-bounds this cycle.
    };

    int cycle = 0; //!< Cycle index within the current set (from 1).
    int pe = 0;    //!< PE (row) index within the column.
    int base = 0;  //!< Base shift chosen this cycle (k of nearest lane).
    int accExp = 0;
    std::vector<LaneAction> action; //!< Per lane.
    std::vector<int> k;             //!< Per lane (valid unless Idle).
};

/**
 * A vertical group of FPRaker PEs sharing one serial-operand stream.
 */
class FPRakerColumn
{
  public:
    /** Eight int16 elements: one lane's field across an 8-PE group. */
    using Vec = vec16::Vec;
    static constexpr int kGroupPes = 8;
    static constexpr int kMaxPes = 64;

    /**
     * @param cfg     PE parameters (shared by all PEs in the column)
     * @param num_pes number of PEs (rows) sharing the A stream, 1-64
     */
    FPRakerColumn(const PeConfig &cfg, int num_pes);

    /**
     * The parallel operands of one set in the column's lane-major
     * layout: for each 8-PE group g, one vector per lane, element i
     * holding PE 8g + i. Rows past the column's PEs hold zero operands.
     * Sized for a column of @p lanes lanes and @p pes PEs; decode()
     * fills it and sets the set's active lanes.
     */
    class DecodedBLanes
    {
      public:
        /** One lane of one group. */
        struct Lane
        {
            Vec exp; //!< Unbiased exponent.
            Vec sig; //!< Significand; 0 = zero.
            Vec neg; //!< Sign as 0 / -1.
        };

        DecodedBLanes(int lanes, int pes);

        /**
         * Decode @p active_lanes lanes of every row (row r lane l at
         * b[r * b_stride + l]; no other lane is read), with the
         * finite-operand panic.
         */
        void decode(const BFloat16 *b, int b_stride, int active_lanes);

        /** Group @p g's lanes. */
        const Lane *
        group(int g) const
        {
            return v_.data() + g * lanes_;
        }

        int lanes() const { return lanes_; }
        int pes() const { return pes_; }
        int activeLanes() const { return active_; }

      private:
        int lanes_;
        int pes_;
        int groups_;
        int active_ = 0;
        std::vector<Lane> v_; //!< [group][lane].
    };

    /**
     * Start a new operand set: decode its parallel operands and start
     * it as the beginSet below does.
     *
     * @param a        cfg.lanes serial operands, shared by every PE
     * @param b        parallel operands, PE r lane l at b[r*b_stride + l]
     * @param b_stride row stride within @p b
     * @param active_lanes lanes carrying real operands (< 0: all).
     *        Ragged dot-product tails pass the true count so padded
     *        lanes contribute neither cycles nor statistics.
     */
    void beginSet(const BFloat16 *a, const BFloat16 *b, int b_stride,
                  int active_lanes = -1);

    /**
     * Start a new operand set on parallel operands decoded for this
     * column's shape, over their active lanes (@p a holds that many).
     * @p b must outlive the set; a tile decodes each step's broadcast
     * rows once and starts every column on them.
     */
    void beginSet(const BFloat16 *a, const DecodedBLanes &b);

    /** True while the current set still has terms to process. */
    bool busy() const;

    /**
     * Advance one processing cycle (no-op when not busy). Panics once
     * the set passes numPes() x its terms cycles, which no correct
     * column reaches, so a column that never settles fails instead of
     * hanging its caller.
     */
    void stepCycle();

    /**
     * Run the current set to completion and apply the exponent-block
     * floor. @return cycles consumed by the set.
     */
    int finishSet();

    /** Convenience: beginSet + finishSet. */
    int
    runSet(const BFloat16 *a, const BFloat16 *b, int b_stride,
           int active_lanes = -1)
    {
        beginSet(a, b, b_stride, active_lanes);
        return finishSet();
    }

    /**
     * Accumulate a full dot product for every PE of the column:
     * config().lanes pairs per set, PE r's parallel operands at
     * b[r * b_stride + i]; a ragged tail runs as a masked set.
     * @return total cycles.
     */
    int dot(const BFloat16 *a, const BFloat16 *b, int b_stride,
            size_t len);

    /** Accumulator of PE @p pe. */
    ChunkedAccumulator &accumulator(int pe);
    const ChunkedAccumulator &accumulator(int pe) const;

    /** Reset all accumulators (new output block). */
    void resetAccumulators();

    /** Statistics of PE @p pe. */
    const PeStats &stats(int pe) const;

    /** Column-aggregate statistics. */
    PeStats aggregateStats() const;

    /** Clear statistics. */
    void clearStats();

    /** Install a per-cycle trace observer (nullptr to remove). */
    void
    setTraceCallback(std::function<void(const PeCycleTrace &)> cb)
    {
        trace_ = std::move(cb);
    }

    int numPes() const { return numPes_; }
    const PeConfig &config() const { return cfg_; }

  private:
    static constexpr int kMaxLanes = ExponentBlockResult::kMaxLanes;

    /** Shared per-lane term stream state: a view into the TermLut. */
    struct LaneStream
    {
        const TermStream *terms = nullptr;
        int cursor = 0;
    };

    struct PeState
    {
        ChunkedAccumulator acc;
        PeStats stats;
    };

    /**
     * A set start's serial-operand side: each lane's term stream and
     * cursor-term cache, liveMask_, and serial_ for the activeLanes_
     * lanes of @p a.
     */
    void beginSerial(const BFloat16 *a);

    /**
     * Retire out-of-bounds lanes and advance fully-consumed cursors to
     * a fixpoint, for the lanes in @p mask. Both are encoder feedback
     * paths, not datapath work: they consume no processing cycles.
     * Accumulator exponents are constant while settling, so each live
     * lane drains independently — and a lane can only need settling
     * once no PE owes its term, or when some accumulator exponent
     * moved (@p moved, or a set start: only then, and after a cursor
     * advance, are out-of-bounds verdicts rechecked), which is what
     * lets stepCycle pass a narrow mask.
     */
    void settle(uint32_t mask, bool moved);

    /** Cycles the current set has taken. */
    int setCycles() const { return cycleCap_ - cyclesLeft_; }

    /**
     * Cold path: deliver the trace records of group @p g's PEs for the
     * cycle stepCycle has selected but not yet accumulated: the lanes'
     * d and pending masks, and each PE's least pending d plus the
     * window (@p lim), past which a pending lane stalls.
     */
    void traceGroup(int g, uint32_t live, const Vec *d, const Vec *pend,
                    const Vec &lim) const;

    PeConfig cfg_;
    int numPes_;
    int groups_;           //!< 8-PE groups, the last one maybe partial.
    const ValueLut *vlut_; //!< Whole-bf16 decode table (value memo).
    LaneStream streams_[kMaxLanes];
    /**
     * Cursor-term cache: the shift and sign of each live lane's
     * pending term, refreshed whenever a cursor advances. stepCycle
     * reads these instead of chasing stream pointers every cycle.
     */
    int8_t curShift_[kMaxLanes] = {};
    uint32_t curNegMask_ = 0;

    /** The current set's serial operands, per lane (beginSerial). */
    struct SerialLanes
    {
        int16_t exp[kMaxLanes] = {};    //!< Unbiased exponent.
        uint8_t nterms[kMaxLanes] = {}; //!< Stream length.
        uint32_t neg = 0;               //!< Sign.
        uint32_t nonzero = 0;           //!< Non-zero value.
        uint64_t zeroSlots = 0;         //!< Empty term slots, all lanes.
    };
    SerialLanes serial_;

    /**
     * The set's lane state, lane-major like DecodedBLanes. Per group
     * and lane, the PEs that have fired the lane's cursor term (fired)
     * and that have dropped its stream (ob), as 0 / -1 masks; per
     * group, the PEs' rows. Padding PEs past numPes() start every lane
     * out-of-bounds, so they never fire, never owe a term, and never
     * block a consensus drop.
     *
     * Every field is exact in int16:
     *  - product exponents Ae + Be lie in [-254, 254] and term shifts
     *    in [-1, 7], so d = shift - (Ae + Be) spans [-255, 261] and the
     *    alignment shift k = accExp + d stays within a few hundred;
     *  - accExp is clamped at kLanesExpFloor, so the empty register's
     *    kMinExp sentinel gives a k far below any threshold (which is
     *    clamped to kLanesThrCap) and still never looks out-of-bounds;
     *  - a PE with a pending lane fires at least its base lane every
     *    cycle, and has at most lanes x 8 terms, so its pending
     *    lane-cycles per set are at most 8 x lanes^2 (2048 at 16
     *    lanes), whatever the PE count, and its fired and OB-skipped
     *    terms at most 8 x lanes;
     *  - the window is clamped at kLanesWindowCap: that window already
     *    fires every pending lane, as any wider one does, and kNoTerm
     *    plus d plus it stays inside int16;
     *  - a contribution is at most 255 << 7 = 32640. A PE's fired lanes
     *    sum in int16 while lanes x (255 << maxDelta) <= 32767 (a
     *    window of 4 at 8 lanes, 3 at 16), and in int32 up to a window
     *    of 7; wider windows reduce each PE's fired lanes in the adder
     *    tree.
     */
    struct LaneMasks
    {
        Vec fired;
        Vec ob;
    };
    struct GroupRows
    {
        Vec accExp;  //!< Clamped e_acc.
        Vec pendN;   //!< Pending lane-cycles.
        Vec fireN;   //!< Fired lane-cycles.
        Vec obSkipN; //!< Terms skipped out-of-bounds.
        Vec pad;     //!< -1 past numPes().
    };
    std::vector<LaneMasks> masks_; //!< [group][lane].
    std::vector<GroupRows> rows_;  //!< [group].
    static constexpr int kLanesExpFloor = -8192;
    static constexpr int kLanesThrCap = 16000;
    static constexpr int kLanesWindowCap = 1024;
    static constexpr int kNoTerm = 16384; //!< Beyond any pending d.

    std::vector<PeState> pes_;
    std::function<void(const PeCycleTrace &)> trace_;
    uint32_t liveMask_ = 0; //!< Lanes whose stream is not exhausted.
    int activeLanes_ = 0;   //!< Lanes carrying real operands this set.
    int cycleCap_ = 0;   //!< Most cycles the current set can take.
    int cyclesLeft_ = 0; //!< Of those, the ones not yet taken.
    bool inSet_ = false;
    const DecodedBLanes *b_ = nullptr; //!< This set's B operands.
    DecodedBLanes laneScratch_;        //!< The pointer beginSet's decode.
};

/**
 * A standalone FPRaker PE (a column of one). The quickstart-facing API:
 * feed 8-pair sets, read cycles, stats, and the accumulated value.
 */
class FPRakerPe
{
  public:
    explicit FPRakerPe(const PeConfig &cfg = PeConfig{});

    /**
     * Process one set of @p n = cfg.lanes operand pairs to completion.
     * @return cycles the set consumed.
     */
    int processSet(const MacPair *pairs, int n);

    /**
     * Accumulate a full dot product, 8 (lanes) pairs per set. Ragged
     * tails run as masked sets: the padded lanes are architecturally
     * absent and contribute neither cycles nor statistics.
     * @return total cycles.
     */
    int dot(const std::vector<BFloat16> &a, const std::vector<BFloat16> &b);

    ChunkedAccumulator &accumulator() { return column_.accumulator(0); }
    const ChunkedAccumulator &
    accumulator() const
    {
        return column_.accumulator(0);
    }

    /** Result so far as bfloat16 / float. */
    BFloat16
    resultBF16() const
    {
        return BFloat16::fromFloat(accumulator().total());
    }
    float resultFloat() const { return accumulator().total(); }

    const PeStats &stats() const { return column_.stats(0); }
    void clearStats() { column_.clearStats(); }
    void reset() { column_.resetAccumulators(); }

    void
    setTraceCallback(std::function<void(const PeCycleTrace &)> cb)
    {
        column_.setTraceCallback(std::move(cb));
    }

    const PeConfig &config() const { return column_.config(); }

  private:
    FPRakerColumn column_;
};

} // namespace fpraker

#endif // FPRAKER_PE_FPRAKER_PE_H
