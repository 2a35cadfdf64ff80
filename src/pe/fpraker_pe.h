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
 * A set runs one of two bodies, chosen per set:
 *
 *  - The PE-parallel body: the column's PEs consume each lane's term in
 *    lockstep, so a cycle is a loop over the (at most 8) lanes of
 *    16-bit vector ops across the PEs: the fired / out-of-bounds masks
 *    and the B exponents, significands and signs are held lane-major,
 *    one vector per lane, and a product exponent adds the lane's
 *    broadcast A exponent. It runs every full 8-lane set, whatever the
 *    window, on columns of up to 16 PEs, with no trace callback,
 *    unless FPRAKER_SIMD=scalar.
 *  - The scalar body: a plain per-PE loop over each PE's pending lanes,
 *    with per-PE bitmasks. It is the fallback for traced sets, ragged
 *    dot() tails, columns of more than 16 PEs, lane counts other than
 *    8, FPRAKER_SIMD=scalar and builds without SSE2.
 *
 * Both reduce a PE's fired lanes with one adder tree (an exact sum
 * while their LSBs span at most 48 bits), are integer-exact, and
 * tests/test_sim.cpp holds each bit-equal to ReferenceColumn.
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
    /**
     * @param cfg     PE parameters (shared by all PEs in the column)
     * @param num_pes number of PEs (rows) sharing the A stream
     */
    FPRakerColumn(const PeConfig &cfg, int num_pes);

    /**
     * The parallel operands of one full 8-lane set in the PE-parallel
     * body's lane-major layout: field[l][r] belongs to lane l of PE r.
     * Two 8-PE halves; rows past the column's PEs hold zero operands.
     */
    struct DecodedBLanes
    {
        static constexpr int kLanes = 8;
        static constexpr int kPes = 16;
        alignas(16) int16_t exp[kLanes][kPes]; //!< Unbiased exponent.
        alignas(16) int16_t sig[kLanes][kPes]; //!< Significand; 0 = zero.
        alignas(16) int16_t neg[kLanes][kPes]; //!< Sign as 0 / -1.
    };

    /**
     * Decode @p rows (<= DecodedBLanes::kPes) full 8-lane parallel
     * operand rows (row r lane l at b[r * b_stride + l]) into @p out,
     * with the finite-operand panic.
     */
    static void decodeBLanes(const BFloat16 *b, int b_stride, int rows,
                             DecodedBLanes *out);

    /**
     * True when a full set runs the PE-parallel body (see the file
     * comment); a traced column always runs the scalar body.
     */
    bool
    peParallel() const
    {
        return peParallel_ && !trace_;
    }

    /**
     * Start a new operand set.
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
     * Start a full 8-lane set on the PE-parallel body, against
     * parallel operands from decodeBLanes. Requires peParallel();
     * @p b must outlive the set. Bit-identical to beginSet.
     */
    void beginSetLanes(const BFloat16 *a, const DecodedBLanes &b);

    /** True while the current set still has terms to process. */
    bool busy() const;

    /** Advance one processing cycle (no-op when not busy). */
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

    /** Charge tile-level broadcast-wait cycles to every lane. */
    void chargeInterPeStall(int cycles);

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

    /** Per-PE state; lane-indexed fields are packed for mask scans. */
    struct PeState
    {
        ChunkedAccumulator acc;
        PeStats stats;
        int16_t abExp[kMaxLanes] = {};  //!< Product exponent per lane.
        uint8_t bSig[kMaxLanes] = {};   //!< B significand per lane.
        uint32_t prodNegMask = 0;       //!< Product-sign bit per lane.
        uint32_t firedMask = 0;         //!< Consumed the cursor term.
        uint32_t obMask = 0;            //!< Stream remainder dropped.

        explicit PeState(const AccumulatorConfig &acc_cfg)
            : acc(acc_cfg)
        {}
    };

    /**
     * Retire out-of-bounds lanes and advance fully-consumed cursors to
     * a fixpoint, for the lanes in @p mask. Both are encoder feedback
     * paths, not datapath work: they consume no processing cycles.
     * Accumulator exponents are constant while settling, so each live
     * lane drains independently — and a lane can only need settling
     * when it fired or when some accumulator exponent moved, which is
     * what lets stepCycle pass a narrow mask.
     */
    void settle(uint32_t mask);

    /** Drain one lane to its settle fixpoint. @p thr is the OB bound. */
    void settleLane(int l, int thr);

    /**
     * A set start's serial-operand side, shared by both bodies: each
     * lane's term stream and cursor-term cache, liveMask_, and serial_
     * for the activeLanes_ lanes of @p a.
     */
    void beginSerial(const BFloat16 *a);

    /** Cold path: build and deliver one PE's cycle trace record. */
    void emitTrace(int r, int acc_exp, int base, uint32_t pend,
                   uint32_t fire, const int *k_of) const;

    /**
     * The PE-parallel body's steps over G 8-PE halves: the set start
     * after beginSerial, one processing cycle, and the settle of the
     * lanes in @p mask. Defined where SSE2 is available.
     */
    template <int G> void beginLanes();
    template <int G> void stepLanes();
    template <int G> void settleLanes(uint32_t mask);

    /** Per-set counters of the PE-parallel body into each PeStats. */
    void finishLanes();

    PeConfig cfg_;
    int numPes_;
    const ValueLut *vlut_; //!< Whole-bf16 decode table (value memo).
    LaneStream streams_[kMaxLanes];
    /**
     * Cursor-term cache: the shift and sign of each live lane's
     * pending term, refreshed whenever a cursor advances. stepCycle
     * reads these instead of chasing stream pointers every cycle.
     */
    int8_t curShift_[kMaxLanes] = {};
    uint32_t curNegMask_ = 0;
    /**
     * Transposed lane state: for lane l, the set of PEs (as bits) that
     * have fired its cursor term / dropped its stream. Kept in sync
     * with the per-PE firedMask/obMask so the settle fixpoint resolves
     * a term's column-wide status with mask compares instead of a
     * per-PE scan. Bounds the column at 64 PEs (enforced in the ctor).
     */
    uint64_t firedPes_[kMaxLanes] = {};
    uint64_t obPes_[kMaxLanes] = {};
    uint64_t peAll_ = 0; //!< Bit per PE.

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
     * The PE-parallel body's per-set state, lane-major like
     * DecodedBLanes: element [l][r] is lane l of PE r. Masks are 0 / -1.
     * Padding PEs past numPes() start every lane out-of-bounds, so they
     * never fire, never owe a term, and never block a consensus drop.
     *
     * Every field is exact in int16:
     *  - product exponents Ae + Be lie in [-254, 254] and term shifts
     *    in [-1, 7], so d = shift - (Ae + Be) and the alignment shift
     *    k = accExp + d stay within a few hundred;
     *  - accExp is clamped at kLanesExpFloor, so the empty register's
     *    kMinExp sentinel gives a k far below any threshold (which is
     *    clamped to kLanesThrCap) and still never looks out-of-bounds;
     *  - a set runs at most rows x 64 cycles (each cycle fires a term
     *    of some PE, and a PE has at most 8 lanes x 8 terms), so a
     *    PE's pending lane-cycles are at most 16 x 64 x 8 = 8192, and
     *    its fired and OB-skipped terms at most 64;
     *  - the window is clamped at kLanesWindowCap: d spans [-255, 261],
     *    so that window already fires every pending lane, as any wider
     *    one does, and base + window stays far inside int16;
     *  - a contribution is at most 255 << 7 = 32640. Eight of them sum
     *    in int16 while maxDelta <= 4 (8 x 255 << 4 = 32640), and in
     *    int32 up to 7; wider windows reduce each PE's fired lanes in
     *    the adder tree the scalar body uses.
     */
    struct LaneState
    {
        static constexpr int kLanes = DecodedBLanes::kLanes;
        static constexpr int kPes = DecodedBLanes::kPes;
        alignas(16) int16_t fired[kLanes][kPes]; //!< Fired cursor term.
        alignas(16) int16_t ob[kLanes][kPes];    //!< Stream dropped.
        alignas(16) int16_t accExp[kPes];  //!< Clamped e_acc per PE.
        alignas(16) int16_t pendN[kPes];   //!< Pending lane-cycles.
        alignas(16) int16_t fireN[kPes];   //!< Fired lane-cycles.
        alignas(16) int16_t obSkipN[kPes]; //!< Terms skipped OB.
        alignas(16) int16_t pad[kPes];     //!< -1 past numPes().
        const DecodedBLanes *b = nullptr;  //!< This set's B operands.
    };
    static constexpr int kLanesExpFloor = -8192;
    static constexpr int kLanesThrCap = 16000;
    static constexpr int kLanesWindowCap = 1024;

    std::vector<PeState> pes_;
    std::function<void(const PeCycleTrace &)> trace_;
    uint32_t liveMask_ = 0; //!< Lanes whose stream is not exhausted.
    int activeLanes_ = 0;   //!< Lanes carrying real operands this set.
    int setCycles_ = 0;
    bool inSet_ = false;
    bool peParallel_ = false; //!< Full sets may run the PE-parallel body.
    bool lanesSet_ = false;   //!< The current set runs that body.
    int halves_ = 1;          //!< 8-PE halves of the PE-parallel body.
    LaneState lanes_;
    DecodedBLanes laneScratch_; //!< beginSet's PE-parallel decode.
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
