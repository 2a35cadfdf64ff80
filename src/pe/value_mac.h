/**
 * @file
 * The value-only FPRaker MAC: what one PE accumulates, without its
 * timing model.
 *
 * Training emulation (Fig. 17) reads a PE's accumulated value and
 * nothing else. FPRakerValueMac replays one PE's term-serial
 * arithmetic set by set and reproduces FPRakerColumn's accumulator for
 * a column of one, bit for bit. It drops what only timing and the
 * column's lockstep need: cycle and lane-cycle accounting, statistics,
 * per-PE fired / out-of-bounds masks, and the cycle trace. It keeps
 * every step that can change the value:
 *
 *  - the term streams of cfg.encoding (TermLut) and the product
 *    exponents Ae + Be;
 *  - the MAX block: the accumulator aligns up to the largest non-zero
 *    product exponent (ExtendedAccumulator::alignTo);
 *  - out-of-bounds skipping: a lane whose first term already falls
 *    past the threshold is dropped before any cycle, and after every
 *    cycle the fired lanes' next terms — and, when the accumulator
 *    exponent moved, every live lane's pending term — are checked
 *    against the new exponent;
 *  - the shift window: each cycle the lanes within maxDelta of the
 *    nearest pending term fire, their contributions summed exactly
 *    (the adder tree) and added once;
 *  - chunked accumulation: one tickMacs(cfg.lanes) per set.
 *
 * A term's alignment shift is k = e_acc - (Ae + Be) + t and its LSB
 * weight is (Ae + Be) - t - 7, so k = e_acc - 7 - lsb: the MAC tracks
 * each lane's pending-term LSB, and both the window (largest LSB minus
 * maxDelta) and the out-of-bounds bound follow from it.
 *
 * Full 8-lane sets with maxDelta <= 4 (the paper's PE has 3) run a
 * vector body that keeps every lane's remaining terms in 16-bit
 * vectors, written in the column's GCC vector extensions (pe/vec16.h),
 * and sums each cycle's fired lanes in int16. A set is two parts:
 * loadSerial decodes the serial operand (its lanes' term queues,
 * transposed into per-term vectors), which depends on nothing else, so
 * a caller streaming one row against many keeps it; processSet runs
 * the one cycle loop over a parallel operand. Within that loop the
 * out-of-bounds bound is refreshed only after an add that moved the
 * accumulator's exponent. Any other shape runs a one-PE FPRakerColumn
 * instead, the model this MAC reproduces. The vector body is
 * integer-exact, and tests/test_fuzz_differential.cpp holds the MAC
 * bit-equal to FPRakerPe::processSet across encodings, windows 0 to 8,
 * thresholds, accumulator widths, chunk sizes and lane counts.
 */

#ifndef FPRAKER_PE_VALUE_MAC_H
#define FPRAKER_PE_VALUE_MAC_H

#include <optional>

#include "pe/fpraker_pe.h"
#include "pe/pe_common.h"
#include "pe/vec16.h"

namespace fpraker {

/** One FPRaker PE reduced to its accumulated value. */
class FPRakerValueMac
{
  public:
    static constexpr int kMaxLanes = 16;

    /**
     * One set's serial operand, decoded once by loadSerial: its lanes
     * and, for the vector body, their term queues transposed into
     * per-term vectors. It depends on nothing but the cfg.lanes serial
     * values and cfg.encoding, so every dot that streams the same
     * values may reuse it.
     */
    struct SerialSet
    {
        vec16::Vec terms[8]; //!< terms[k]: each lane's k-th term.
        BFloat16 a[kMaxLanes];
    };

    explicit FPRakerValueMac(const PeConfig &cfg);

    /** Decode cfg.lanes serial values @p a for processSet. */
    static void loadSerial(const PeConfig &cfg, const BFloat16 *a,
                           SerialSet &s);

    /**
     * Accumulate one set of cfg.lanes operand pairs: lane l is
     * s.a[l] * b[l], @p s loaded under this MAC's cfg. Panics on a
     * non-finite operand, like the PE.
     */
    void processSet(const SerialSet &s, const BFloat16 *b);

    /** FP32 running sum plus the current chunk. */
    float
    total() const
    {
        return column_ ? column_->accumulator(0).total() : acc_.total();
    }

  private:
    /** Every significand's terms as 16-bit queue entries. */
    struct TermQueues;

    /** True when cfg's sets run the vector body. */
    static bool vectorBody(const PeConfig &cfg);

    /** The vector body: one full 8-lane set. */
    void processSet8(const SerialSet &s, const BFloat16 *b);

    const TermQueues *queues_; //!< Set when the vector body applies.
    int maxDelta_;
    bool skipOb_;
    int obThreshold_;
    ChunkedAccumulator acc_;              //!< The vector body's register.
    std::optional<FPRakerColumn> column_; //!< Every other shape.
};

} // namespace fpraker

#endif // FPRAKER_PE_VALUE_MAC_H
