/**
 * @file
 * Per-model value-statistics profiles used to synthesize traces.
 *
 * The paper instruments PyTorch training on real datasets and replays
 * the captured tensors; offline we substitute calibrated statistical
 * profiles (see DESIGN.md section 1). The PE/tile timing depends only on
 * the statistics a profile controls:
 *
 *  - value sparsity and its clustering (two-state Markov zero runs, so
 *    channel-wise zero clusters behave like post-ReLU feature maps),
 *  - the exponent distribution (mean/sigma and AR(1) lag-1 correlation,
 *    matching the narrow, correlated distributions of paper Fig. 6),
 *  - the number of active mantissa bits (full 7 for natural training,
 *    ~3 for PACT-quantized ResNet18-Q, low for near-power-of-two
 *    gradient tensors).
 *
 * Profiles are interpolated over training progress in [0, 1] through
 * piecewise-linear knots so Fig. 18's over-time trends reproduce
 * (VGG16's early-epoch advantage, ResNet18-Q's post-clipping gain).
 */

#ifndef FPRAKER_TRACE_TRAINING_PROFILE_H
#define FPRAKER_TRACE_TRAINING_PROFILE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/layer.h"

namespace fpraker {

/** Statistical description of one tensor's values at one time. */
struct ValueProfile
{
    double sparsity = 0.0;      //!< Fraction of exact zeros.
    double zeroClusterLen = 8.0;//!< Mean zero-run length (channel-wise).
    double expMu = -4.0;        //!< Mean unbiased exponent.
    double expSigma = 3.0;      //!< Exponent standard deviation.
    double expCorr = 0.85;      //!< Lag-1 exponent correlation.
    int mantissaBits = 7;       //!< Active mantissa bits [0, 7].

    /**
     * Probability that an active mantissa bit is set. Real training
     * tensors are far from uniform in their mantissas — values cluster
     * near powers of two and low-order bits are frequently zero (this
     * is exactly the bit sparsity of the paper's Fig. 1b) — so the
     * default is well below one half.
     */
    double bitDensity = 0.5;

    /** Expected NAF terms per value (for potential-speedup estimates). */
    double expectedTermsPerValue() const;
};

/** A value profile's seven fields as key words (doubles by bit pattern). */
using ProfileWords = std::array<uint64_t, 7>;

/**
 * The words that key anything computed from @p p: a phase's burst
 * memo key and operand slabs (accel/phase_runner.cpp) and its BDC
 * footprints (accel/accelerator.h).
 */
ProfileWords profileWords(const ValueProfile &p);

/** A knot on the training-progress axis. */
struct ProfileKnot
{
    double progress; //!< In [0, 1].
    ValueProfile profile;
};

/** Evolution of one tensor's statistics over training. */
class TensorProfile
{
  public:
    TensorProfile() = default;
    explicit TensorProfile(std::vector<ProfileKnot> knots);

    /** Interpolated profile at @p progress (clamped to [0, 1]). */
    ValueProfile at(double progress) const;

    /** Convenience: a constant profile. */
    static TensorProfile constant(const ValueProfile &p);

  private:
    std::vector<ProfileKnot> knots_;
};

/** The three tensor profiles of a model. */
struct ModelProfile
{
    TensorProfile activation;
    TensorProfile weight;
    TensorProfile gradient;

    const TensorProfile &of(TensorKind kind) const;
};

} // namespace fpraker

#endif // FPRAKER_TRACE_TRAINING_PROFILE_H
