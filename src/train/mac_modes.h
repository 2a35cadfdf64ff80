/**
 * @file
 * Pluggable MAC arithmetic for the Fig. 17 accuracy study.
 *
 * The paper emulates the FPRaker PE inside PlaidML by overriding the
 * mad() function during end-to-end training. Here the training layers
 * route every product through a MacEngine configured with one of:
 *
 *  - NativeFp32:      FP32 fused multiply-add (the reference curve),
 *  - Bf16Chunked:     bfloat16 operands into the extended-precision
 *                     chunk-based accumulator (the baseline PE's math),
 *  - FPRakerEmulated: bfloat16 operands through the term-serial FPRaker
 *                     PE's arithmetic, including out-of-bounds term
 *                     skipping: FPRakerValueMac (pe/value_mac.h), which
 *                     accumulates exactly what FPRakerPe would: the
 *                     paper's 8-lane PE without its cycle model, any
 *                     other shape on a one-PE FPRakerColumn.
 *
 * Fig. 17's claim is that all three converge together: FPRaker skips
 * only work that cannot affect the accumulator.
 *
 * The unit a layer hands over is a GEMM: matmulT(A, B^T) computes the
 * dot of every row of A with every row of B^T, each accumulated in k
 * order exactly as dot() accumulates it. The bf16 modes convert each
 * operand matrix to bfloat16 once per call and compute C a row at a
 * time: FPRakerEmulated decodes the row's serial sets (their term
 * queues) once for all of the row's dots, and Bf16Chunked walks four
 * dots in lockstep, each on its own chunked register, so their
 * rounding chains overlap. dot() is that row body with one dot, so the
 * two cannot drift apart. NativeFp32 walks the float rows as they are,
 * on the FMA instruction where the host has one (it rounds exactly as
 * libm's fmaf does). How dots are walked is decided here, not in the
 * layers.
 *
 * A MacEngine holds only its configuration: every dot builds its
 * accumulator on the stack, so one const engine may serve any number
 * of threads at once.
 */

#ifndef FPRAKER_TRAIN_MAC_MODES_H
#define FPRAKER_TRAIN_MAC_MODES_H

#include <cstddef>

#include "pe/pe_common.h"
#include "train/tensor.h"

namespace fpraker {

/** Arithmetic used by the training layers. */
enum class MacMode
{
    NativeFp32,
    Bf16Chunked,
    FPRakerEmulated,
};

const char *macModeLabel(MacMode mode);

/** Dot-product engine implementing the three arithmetic modes. */
class MacEngine
{
  public:
    explicit MacEngine(MacMode mode, PeConfig pe_cfg = PeConfig{});

    /** Dot product of two length-n float vectors under the mode. */
    float dot(const float *a, const float *b, size_t n) const;

    /**
     * C = A B^T under the mode: C(i, j) is dot(a.row(i), bt.row(j)).
     * @p a is the serial (term) operand and @p bt the parallel one,
     * as in dot(); their column counts must match.
     */
    Matrix matmulT(const Matrix &a, const Matrix &bt) const;

    MacMode mode() const { return mode_; }

  private:
    MacMode mode_;
    PeConfig peCfg_;
};

} // namespace fpraker

#endif // FPRAKER_TRAIN_MAC_MODES_H
