/**
 * @file
 * Pluggable MAC arithmetic for the Fig. 17 accuracy study.
 *
 * The paper emulates the FPRaker PE inside PlaidML by overriding the
 * mad() function during end-to-end training. Here the training layers
 * route every dot product through a MacEngine configured with one of:
 *
 *  - NativeFp32:      FP32 fused multiply-add (the reference curve),
 *  - Bf16Chunked:     bfloat16 operands into the extended-precision
 *                     chunk-based accumulator (the baseline PE's math),
 *  - FPRakerEmulated: bfloat16 operands through the term-serial FPRaker
 *                     PE's arithmetic, including out-of-bounds term
 *                     skipping: FPRakerValueMac (pe/value_mac.h), which
 *                     accumulates exactly what FPRakerPe would, without
 *                     its cycle model.
 *
 * Fig. 17's claim is that all three converge together: FPRaker skips
 * only work that cannot affect the accumulator.
 *
 * A MacEngine holds only its configuration: every dot builds its
 * accumulator on the stack, so one const engine may serve any number
 * of threads at once.
 */

#ifndef FPRAKER_TRAIN_MAC_MODES_H
#define FPRAKER_TRAIN_MAC_MODES_H

#include <cstddef>

#include "pe/pe_common.h"

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

    /** Strided dot (b advances by b_stride): y = sum a[i]*b[i*stride]. */
    float dotStrided(const float *a, const float *b, size_t n,
                     size_t b_stride) const;

    MacMode mode() const { return mode_; }

  private:
    MacMode mode_;
    PeConfig peCfg_;
};

} // namespace fpraker

#endif // FPRAKER_TRAIN_MAC_MODES_H
