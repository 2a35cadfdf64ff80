#include "trace/training_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace fpraker {

double
ValueProfile::expectedTermsPerValue() const
{
    if (mantissaBits <= 0)
        return (1.0 - sparsity); // power-of-two values: one term
    // Empirical NAF density: significands with b active mantissa bits,
    // each set with probability d, average about 1 + 0.7*b*d non-zero
    // digits (3.45 at b = 7, d = 0.5, measured over all normalized
    // significands; NAF merges runs so density saturates below raw).
    double terms = 1.0 + 0.7 * static_cast<double>(mantissaBits) *
                             bitDensity;
    return (1.0 - sparsity) * terms;
}

ProfileWords
profileWords(const ValueProfile &p)
{
    return {std::bit_cast<uint64_t>(p.sparsity),
            std::bit_cast<uint64_t>(p.zeroClusterLen),
            std::bit_cast<uint64_t>(p.expMu),
            std::bit_cast<uint64_t>(p.expSigma),
            std::bit_cast<uint64_t>(p.expCorr),
            static_cast<uint64_t>(p.mantissaBits),
            std::bit_cast<uint64_t>(p.bitDensity)};
}

TensorProfile::TensorProfile(std::vector<ProfileKnot> knots)
    : knots_(std::move(knots))
{
    panic_if(knots_.empty(), "profile needs at least one knot");
    for (size_t i = 1; i < knots_.size(); ++i)
        panic_if(knots_[i].progress < knots_[i - 1].progress,
                 "knots must be sorted by progress");
}

TensorProfile
TensorProfile::constant(const ValueProfile &p)
{
    return TensorProfile({ProfileKnot{0.0, p}});
}

ValueProfile
TensorProfile::at(double progress) const
{
    panic_if(knots_.empty(), "uninitialized profile");
    progress = std::clamp(progress, 0.0, 1.0);
    if (progress <= knots_.front().progress)
        return knots_.front().profile;
    if (progress >= knots_.back().progress)
        return knots_.back().profile;
    size_t hi = 1;
    while (knots_[hi].progress < progress)
        ++hi;
    const ProfileKnot &a = knots_[hi - 1];
    const ProfileKnot &b = knots_[hi];
    double span = b.progress - a.progress;
    double t = span <= 0.0 ? 0.0 : (progress - a.progress) / span;

    auto lerp = [t](double x, double y) { return x + (y - x) * t; };
    ValueProfile out;
    out.sparsity = lerp(a.profile.sparsity, b.profile.sparsity);
    out.zeroClusterLen =
        lerp(a.profile.zeroClusterLen, b.profile.zeroClusterLen);
    out.expMu = lerp(a.profile.expMu, b.profile.expMu);
    out.expSigma = lerp(a.profile.expSigma, b.profile.expSigma);
    out.expCorr = lerp(a.profile.expCorr, b.profile.expCorr);
    out.mantissaBits = static_cast<int>(std::lround(
        lerp(a.profile.mantissaBits, b.profile.mantissaBits)));
    out.bitDensity = lerp(a.profile.bitDensity, b.profile.bitDensity);
    return out;
}

const TensorProfile &
ModelProfile::of(TensorKind kind) const
{
    switch (kind) {
      case TensorKind::Activation:
        return activation;
      case TensorKind::Weight:
        return weight;
      case TensorKind::Gradient:
        return gradient;
    }
    panic("bad tensor kind");
}

} // namespace fpraker
