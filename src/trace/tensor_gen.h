/**
 * @file
 * Synthetic tensor-value generation from calibrated profiles.
 *
 * A TensorGenerator streams bfloat16 values whose statistics follow a
 * ValueProfile: zeros arrive in clustered runs (two-state Markov chain),
 * exponents follow an AR(1) process (clamped Gaussian), and mantissas
 * are uniform over the configured number of active bits. Streams are
 * deterministic given a seed. This is the offline substitute for the
 * paper's captured PyTorch training tensors.
 *
 * Two generation paths produce bit-identical streams:
 *
 *  - next() / fillScalar() — the value-at-a-time reference walk;
 *  - fill() / generate() — the batched slab path: the RNG walk stays
 *    scalar (it is inherently serial) but every Bernoulli draw becomes
 *    one integer threshold compare (ceil(p * 2^53) is exact, so the
 *    outcome equals the uniform() < p compare bit for bit), the AR(1)
 *    innovation scale is hoisted out of the loop, and the staged
 *    sign/exponent/mantissa planes are packed into bfloat16 bit
 *    patterns in one pass per block (numeric/slab_ops.h).
 *
 * tests/test_fastpath.cpp fuzzes the two paths against each other.
 */

#ifndef FPRAKER_TRACE_TENSOR_GEN_H
#define FPRAKER_TRACE_TENSOR_GEN_H

#include <vector>

#include "common/rng.h"
#include "numeric/bfloat16.h"
#include "numeric/term_encoder.h"
#include "trace/training_profile.h"

namespace fpraker {

/** Streaming generator of profile-shaped bfloat16 values. */
class TensorGenerator
{
  public:
    TensorGenerator(const ValueProfile &profile, uint64_t seed);

    /** Next value in the stream (scalar reference path). */
    BFloat16 next();

    /** Generate @p n values (batched slab path). */
    std::vector<BFloat16> generate(size_t n);

    /** Fill an existing buffer via the batched slab path. */
    void fill(BFloat16 *out, size_t n);

    /**
     * Fill via the value-at-a-time reference walk. Bit-identical to
     * fill(); kept callable for the differential fuzz tests.
     */
    void fillScalar(BFloat16 *out, size_t n);

    const ValueProfile &profile() const { return profile_; }

  private:
    ValueProfile profile_;
    Rng rng_;
    bool inZeroRun_;
    bool havePrevExp_;
    double prevExp_;
    double pEnterZero_;
    double pExitZero_;
    // Batched-path constants, fixed at construction: exact integer
    // Bernoulli thresholds and the hoisted AR(1) innovation scale.
    uint64_t thrEnterZero_ = 0;
    uint64_t thrExitZero_ = 0;
    uint64_t thrBit_ = 0;
    double arRho_ = 0.0;
    double arInnovScale_ = 0.0;
};

/**
 * Position-addressable source of operand slabs for sampled phases.
 *
 * A phase sample consumes two value streams (the serial and parallel
 * operands) in independent bursts; each burst @p bi reads one window of
 * each stream. Implementations must be pure functions of the burst
 * index — never of the executing worker — so sharded samples stay
 * bit-identical to the serial walk at any thread count. The slabs use
 * the same bfloat16 layout numeric/slab_ops consumes.
 *
 * Two families exist: GeneratorSlabSupply synthesizes the windows from
 * a ValueProfile on demand (the historical path), and the workload
 * layer's TraceSlabSupply replays pre-recorded streams (trace-backed
 * ingestion, src/workload/supply.h).
 */
class SlabSupply
{
  public:
    virtual ~SlabSupply() = default;

    /** Fill burst @p bi's window of the serial operand (@p n values). */
    virtual void fillSerial(size_t bi, BFloat16 *out,
                            size_t n) const = 0;
    /** Fill burst @p bi's window of the parallel operand. */
    virtual void fillParallel(size_t bi, BFloat16 *out,
                              size_t n) const = 0;
};

/**
 * Generator-backed slab supply: burst @p bi's windows come from fresh
 * TensorGenerators seeded with substreamSeed(base, 2*bi) (serial) and
 * substreamSeed(base, 2*bi + 1) (parallel) — exactly the substream
 * discipline the phase runner has always used, now behind the seam.
 */
class GeneratorSlabSupply final : public SlabSupply
{
  public:
    GeneratorSlabSupply(const ValueProfile &serial,
                        const ValueProfile &parallel, uint64_t base_seed)
        : serial_(serial), parallel_(parallel), baseSeed_(base_seed)
    {
    }

    void fillSerial(size_t bi, BFloat16 *out, size_t n) const override;
    void fillParallel(size_t bi, BFloat16 *out,
                      size_t n) const override;

    /** Generator seed of burst @p bi's serial or parallel window. */
    static uint64_t windowSeed(uint64_t base_seed, size_t bi,
                               bool parallel);

  private:
    ValueProfile serial_;
    ValueProfile parallel_;
    uint64_t baseSeed_;
};

/** Measured statistics of a value stream (for Fig. 1-style reporting). */
struct TensorStats
{
    uint64_t values = 0;
    uint64_t zeros = 0;
    uint64_t terms = 0;

    double
    valueSparsity() const
    {
        return values ? static_cast<double>(zeros) /
                            static_cast<double>(values)
                      : 0.0;
    }

    /** 1 - terms / (8 slots per value), the paper's term sparsity. */
    double
    termSparsity() const
    {
        return values ? 1.0 - static_cast<double>(terms) /
                                  (static_cast<double>(values) * kTermSlots)
                      : 0.0;
    }

    double
    termsPerValue() const
    {
        return values
                   ? static_cast<double>(terms) / static_cast<double>(values)
                   : 0.0;
    }

    void
    merge(const TensorStats &o)
    {
        values += o.values;
        zeros += o.zeros;
        terms += o.terms;
    }
};

/**
 * Measure sparsity/term statistics of a value stream. Term counts come
 * from the shared TermLut, so this is cheap enough for per-step use in
 * the figure harnesses.
 */
TensorStats measureTensor(const BFloat16 *values, size_t n,
                          TermEncoding encoding = TermEncoding::Canonical);

/** Vector convenience overload. */
inline TensorStats
measureTensor(const std::vector<BFloat16> &values,
              TermEncoding encoding = TermEncoding::Canonical)
{
    return measureTensor(values.data(), values.size(), encoding);
}

} // namespace fpraker

#endif // FPRAKER_TRACE_TENSOR_GEN_H
