#include "trace/tensor_gen.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "numeric/slab_ops.h"
#include "numeric/term_lut.h"
#include "trace/rng_stream.h"

namespace fpraker {

namespace {

/**
 * Exact integer threshold for Rng::bernoulli(p): uniform() maps the
 * raw 53-bit draw u to u * 2^-53 (an exact double), so u * 2^-53 < p
 * iff u < ceil(p * 2^53). The product p * 2^53 only rescales the
 * exponent, hence is itself exact, making the integer compare
 * bit-equivalent to the floating compare for every p.
 */
uint64_t
bernoulliThreshold(double p)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return 1ull << 53;
    return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

} // namespace

TensorGenerator::TensorGenerator(const ValueProfile &profile, uint64_t seed)
    : profile_(profile), rng_(seed), inZeroRun_(false),
      havePrevExp_(false), prevExp_(0.0)
{
    panic_if(profile_.sparsity < 0.0 || profile_.sparsity > 1.0,
             "sparsity %f out of range", profile_.sparsity);
    panic_if(profile_.mantissaBits < 0 || profile_.mantissaBits > 7,
             "mantissa bits %d out of range", profile_.mantissaBits);

    // Two-state Markov chain with geometric run lengths: the zero-run
    // mean is the profile's cluster length, and the non-zero run mean
    // follows from the target sparsity s: L_n = L_z * (1 - s) / s.
    // Both run means must be at least one value long, so high sparsity
    // implies a floor on the zero-run length (s = 0.8 cannot be hit
    // with runs shorter than 4 — matching i.i.d. zeros, whose runs
    // average 1/(1-s) anyway).
    double s = profile_.sparsity;
    double lz = std::max(1.0, profile_.zeroClusterLen);
    if (s <= 0.0) {
        pEnterZero_ = 0.0;
        pExitZero_ = 1.0;
    } else if (s >= 1.0) {
        pEnterZero_ = 1.0;
        pExitZero_ = 0.0;
        inZeroRun_ = true;
    } else {
        double min_lz = s / (1.0 - s);
        if (lz < min_lz)
            lz = min_lz;
        double ln = lz * (1.0 - s) / s;
        pEnterZero_ = 1.0 / std::max(1.0, ln);
        pExitZero_ = 1.0 / lz;
        // Start in the stationary distribution.
        inZeroRun_ = rng_.bernoulli(s);
    }

    thrEnterZero_ = bernoulliThreshold(pEnterZero_);
    thrExitZero_ = bernoulliThreshold(pExitZero_);
    thrBit_ = bernoulliThreshold(profile_.bitDensity);
    arRho_ = std::clamp(profile_.expCorr, 0.0, 0.999);
    arInnovScale_ =
        profile_.expSigma * std::sqrt(1.0 - arRho_ * arRho_);
}

BFloat16
TensorGenerator::next()
{
    // State transition first, so run lengths are geometric with the
    // configured means.
    if (inZeroRun_) {
        if (rng_.bernoulli(pExitZero_))
            inZeroRun_ = false;
    } else {
        if (rng_.bernoulli(pEnterZero_))
            inZeroRun_ = true;
    }
    if (inZeroRun_)
        return BFloat16();

    // AR(1) exponent process.
    double mu = profile_.expMu;
    double rho = std::clamp(profile_.expCorr, 0.0, 0.999);
    double innovation =
        profile_.expSigma * std::sqrt(1.0 - rho * rho) * rng_.gaussian();
    double e = havePrevExp_
                   ? mu + rho * (prevExp_ - mu) + innovation
                   : mu + profile_.expSigma * rng_.gaussian();
    prevExp_ = e;
    havePrevExp_ = true;

    int exp_i = static_cast<int>(std::lround(e));
    exp_i = std::clamp(exp_i, -126, 127);

    int b = profile_.mantissaBits;
    int mantissa = 0;
    for (int bit = 0; bit < b; ++bit)
        if (rng_.bernoulli(profile_.bitDensity))
            mantissa |= 1 << (6 - bit); // fill from the MSB down
    bool neg = rng_.bernoulli(0.5);
    return BFloat16::fromFields(neg, exp_i + BFloat16::kBias, mantissa);
}

std::vector<BFloat16>
TensorGenerator::generate(size_t n)
{
    std::vector<BFloat16> out(n);
    fill(out.data(), n);
    return out;
}

void
TensorGenerator::fillScalar(BFloat16 *out, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = next();
}

void
TensorGenerator::fill(BFloat16 *out, size_t n)
{
    // The batched walk consumes the RNG stream draw-for-draw like
    // next(): one transition draw per value, then (non-zero values
    // only) the Gaussian draws, mantissaBits mantissa draws, and the
    // sign draw. Only the arithmetic around the draws changes — every
    // Bernoulli is an exact integer threshold compare and the staged
    // field planes are packed to bit patterns by SIMD — so the output
    // slab is bit-identical to the scalar walk.
    constexpr size_t kBlock = 256;
    int16_t exp_plane[kBlock];
    uint8_t man_plane[kBlock];
    uint8_t neg_plane[kBlock];
    const int b = profile_.mantissaBits;
    const double mu = profile_.expMu;
    const double sigma = profile_.expSigma;
    constexpr uint64_t thr_half = 1ull << 52; // bernoulli(0.5)

    size_t done = 0;
    while (done < n) {
        const size_t block = std::min(kBlock, n - done);
        for (size_t i = 0; i < block; ++i) {
            const uint64_t u = rng_.next() >> 11;
            if (inZeroRun_) {
                if (u < thrExitZero_)
                    inZeroRun_ = false;
            } else if (u < thrEnterZero_) {
                inZeroRun_ = true;
            }
            if (inZeroRun_) {
                exp_plane[i] = 0;
                man_plane[i] = 0;
                neg_plane[i] = 0;
                continue;
            }

            // Mirror next() draw-for-draw: the innovation Gaussian is
            // consumed even for the first value (whose ternary then
            // draws a second, unconditioned Gaussian).
            const double innovation = arInnovScale_ * rng_.gaussian();
            const double e = havePrevExp_
                                 ? mu + arRho_ * (prevExp_ - mu) +
                                       innovation
                                 : mu + sigma * rng_.gaussian();
            prevExp_ = e;
            havePrevExp_ = true;
            int exp_i = static_cast<int>(std::lround(e));
            exp_i = std::clamp(exp_i, -126, 127);

            int mantissa = 0;
            for (int bit = 0; bit < b; ++bit)
                if ((rng_.next() >> 11) < thrBit_)
                    mantissa |= 1 << (6 - bit);

            exp_plane[i] =
                static_cast<int16_t>(exp_i + BFloat16::kBias);
            man_plane[i] = static_cast<uint8_t>(mantissa);
            neg_plane[i] = (rng_.next() >> 11) < thr_half ? 1 : 0;
        }
        slab::packBf16(exp_plane, man_plane, neg_plane, block,
                       out + done);
        done += block;
    }
}

uint64_t
GeneratorSlabSupply::windowSeed(uint64_t base_seed, size_t bi,
                                bool parallel)
{
    return substreamSeed(base_seed, 2 * bi + (parallel ? 1 : 0));
}

void
GeneratorSlabSupply::fillSerial(size_t bi, BFloat16 *out, size_t n) const
{
    TensorGenerator gen(serial_, windowSeed(baseSeed_, bi, false));
    gen.fill(out, n);
}

void
GeneratorSlabSupply::fillParallel(size_t bi, BFloat16 *out,
                                  size_t n) const
{
    TensorGenerator gen(parallel_, windowSeed(baseSeed_, bi, true));
    gen.fill(out, n);
}

TensorStats
measureTensor(const BFloat16 *values, size_t n, TermEncoding encoding)
{
    const TermLut &lut = TermLut::of(encoding);
    TensorStats stats;
    stats.values = n;
    slab::countTerms(values, n, lut.countsTable(), &stats.zeros,
                     &stats.terms);
    return stats;
}

} // namespace fpraker
