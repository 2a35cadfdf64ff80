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
 * and sums each cycle's fired lanes in int16. Any other shape runs a
 * one-PE FPRakerColumn instead, the model this MAC reproduces. The
 * vector body is integer-exact, and tests/test_fuzz_differential.cpp
 * holds the MAC bit-equal to FPRakerPe::processSet across encodings,
 * windows 0 to 8, thresholds, accumulator widths, chunk sizes and lane
 * counts.
 */

#ifndef FPRAKER_PE_VALUE_MAC_H
#define FPRAKER_PE_VALUE_MAC_H

#include <optional>

#include "pe/fpraker_pe.h"
#include "pe/pe_common.h"

namespace fpraker {

/** One FPRaker PE reduced to its accumulated value. */
class FPRakerValueMac
{
  public:
    static constexpr int kMaxLanes = 16;

    explicit FPRakerValueMac(const PeConfig &cfg);

    /**
     * Accumulate one set of cfg.lanes operand pairs (lane l is
     * a[l] * b[l]). Panics on a non-finite operand, like the PE.
     */
    void processSet(const BFloat16 *a, const BFloat16 *b);

    /** FP32 running sum plus the current chunk. */
    float
    total() const
    {
        return column_ ? column_->accumulator(0).total() : acc_.total();
    }

  private:
    /** Every significand's terms as 16-bit queue entries. */
    struct TermQueues;

    /** The vector body: one full 8-lane set. */
    void processSet8(const BFloat16 *a, const BFloat16 *b);

    const TermQueues *queues_; //!< Set when the vector body applies.
    int maxDelta_;
    bool skipOb_;
    int obThreshold_;
    ChunkedAccumulator acc_;              //!< The vector body's register.
    std::optional<FPRakerColumn> column_; //!< Every other shape.
};

} // namespace fpraker

#endif // FPRAKER_PE_VALUE_MAC_H
