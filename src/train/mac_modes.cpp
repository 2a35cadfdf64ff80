#include "train/mac_modes.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "pe/value_mac.h"

namespace fpraker {

namespace {

/** NativeFp32: one fused multiply-add per product, in order. */
__attribute__((always_inline)) inline float
fmaLoop(const float *a, const float *b, size_t n)
{
    float sum = 0.0f;
    for (size_t i = 0; i < n; ++i)
        sum = std::fma(a[i], b[i], sum);
    return sum;
}

#if defined(__x86_64__) || defined(__i386__)
/** The same loop on the FMA instruction instead of a libm call. */
__attribute__((target("fma"))) float
fmaLoopHw(const float *a, const float *b, size_t n)
{
    return fmaLoop(a, b, n);
}
#endif

/**
 * NativeFp32's dot, on the FMA instruction where the CPU has one. The
 * instruction and libm's fmaf both round once, so the choice never
 * changes a bit. The CPU is probed here rather than by a target_clones
 * ifunc: ThreadSanitizer instruments an ifunc's resolver, which runs
 * before the sanitizer's runtime starts and so crashes the process at
 * load.
 */
float
fp32Dot(const float *a, const float *b, size_t n)
{
#if defined(__x86_64__) || defined(__i386__)
    static const bool hw = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("fma");
    }();
    if (hw)
        return fmaLoopHw(a, b, n);
#endif
    return fmaLoop(a, b, n);
}

/**
 * Bf16Chunked: the dots of row @p a with the D consecutive rows at
 * @p b, into out[0..D). Each dot has its own chunked register, fed its
 * own products in k order; walking the D in lockstep lets their
 * normalize-and-round chains overlap. dot() is the case D = 1.
 */
template <size_t D>
void
chunkedDots(const BFloat16 *a, const BFloat16 *b, size_t n,
            const AccumulatorConfig &cfg, float *out)
{
    ChunkedAccumulator acc[D];
    for (ChunkedAccumulator &x : acc)
        x = ChunkedAccumulator(cfg);
    for (size_t k = 0; k < n; ++k)
        for (size_t d = 0; d < D; ++d)
            acc[d].addProduct(a[k], b[d * n + k]);
    for (size_t d = 0; d < D; ++d)
        out[d] = acc[d].total();
}

/**
 * The set at lanes i.. of row @p x of length n: the row itself, or a
 * ragged tail copied into @p pad and padded with zeros, so every set
 * ticks the chunk counter by cfg.lanes.
 */
const BFloat16 *
wholeSet(const BFloat16 *x, size_t i, size_t n, size_t lanes,
         BFloat16 (&pad)[FPRakerValueMac::kMaxLanes])
{
    if (i + lanes <= n)
        return x + i;
    std::fill(std::copy(x + i, x + n, pad), pad + lanes, BFloat16());
    return pad;
}

/** FPRakerEmulated: row @p a decoded into whole sets of cfg.lanes. */
std::vector<FPRakerValueMac::SerialSet>
serialRow(const PeConfig &cfg, const BFloat16 *a, size_t n)
{
    const size_t lanes = static_cast<size_t>(cfg.lanes);
    std::vector<FPRakerValueMac::SerialSet> sets((n + lanes - 1) / lanes);
    BFloat16 pad[FPRakerValueMac::kMaxLanes];
    for (size_t s = 0; s < sets.size(); ++s)
        FPRakerValueMac::loadSerial(
            cfg, wholeSet(a, s * lanes, n, lanes, pad), sets[s]);
    return sets;
}

/** FPRakerEmulated: one dot of a row decoded by serialRow with b. */
float
fprakerDot(const PeConfig &cfg,
           const std::vector<FPRakerValueMac::SerialSet> &sets,
           const BFloat16 *b, size_t n)
{
    FPRakerValueMac mac(cfg);
    const size_t lanes = static_cast<size_t>(cfg.lanes);
    BFloat16 pad[FPRakerValueMac::kMaxLanes];
    for (size_t s = 0; s < sets.size(); ++s)
        mac.processSet(sets[s], wholeSet(b, s * lanes, n, lanes, pad));
    return mac.total();
}

/**
 * One row of C under a bf16 mode: the dots of row @p a with each of
 * the @p m rows at @p bt, all of length n, into out[0..m). dot() is the
 * case m = 1, so dot() and matmulT() run the same body.
 */
void
bf16Row(MacMode mode, const PeConfig &cfg, const BFloat16 *a,
        const BFloat16 *bt, size_t m, size_t n, float *out)
{
    if (mode == MacMode::Bf16Chunked) {
        size_t j = 0;
        for (; j + 4 <= m; j += 4)
            chunkedDots<4>(a, bt + j * n, n, cfg.acc, out + j);
        for (; j < m; ++j)
            chunkedDots<1>(a, bt + j * n, n, cfg.acc, out + j);
        return;
    }
    // The row's term queues are built once for all m dots.
    const std::vector<FPRakerValueMac::SerialSet> sets = serialRow(cfg, a, n);
    for (size_t j = 0; j < m; ++j)
        out[j] = fprakerDot(cfg, sets, bt + j * n, n);
}

/** @p n floats rounded to bfloat16, the bf16 modes' operand type. */
std::vector<BFloat16>
toBf16(const float *v, size_t n)
{
    std::vector<BFloat16> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = BFloat16::fromFloat(v[i]);
    return out;
}

} // namespace

const char *
macModeLabel(MacMode mode)
{
    switch (mode) {
      case MacMode::NativeFp32:
        return "Native_FP32";
      case MacMode::Bf16Chunked:
        return "Baseline_BF16";
      case MacMode::FPRakerEmulated:
        return "FPRaker_BF16";
    }
    panic("bad mac mode");
}

MacEngine::MacEngine(MacMode mode, PeConfig pe_cfg)
    : mode_(mode), peCfg_(pe_cfg)
{
}

float
MacEngine::dot(const float *a, const float *b, size_t n) const
{
    if (mode_ == MacMode::NativeFp32)
        return fp32Dot(a, b, n);
    const std::vector<BFloat16> ah = toBf16(a, n);
    const std::vector<BFloat16> bh = toBf16(b, n);
    float out;
    bf16Row(mode_, peCfg_, ah.data(), bh.data(), 1, n, &out);
    return out;
}

Matrix
MacEngine::matmulT(const Matrix &a, const Matrix &bt) const
{
    panic_if(a.cols() != bt.cols(),
             "matmulT inner dimensions differ (%zu vs %zu)", a.cols(),
             bt.cols());
    const size_t n = a.cols();
    Matrix c(a.rows(), bt.rows());
    if (mode_ == MacMode::NativeFp32) {
        for (size_t i = 0; i < a.rows(); ++i)
            for (size_t j = 0; j < bt.rows(); ++j)
                c.at(i, j) = fp32Dot(a.row(i), bt.row(j), n);
        return c;
    }
    const std::vector<BFloat16> ah = toBf16(a.data(), a.size());
    const std::vector<BFloat16> bh = toBf16(bt.data(), bt.size());
    for (size_t i = 0; i < a.rows(); ++i)
        bf16Row(mode_, peCfg_, ah.data() + i * n, bh.data(), bt.rows(), n,
                c.row(i));
    return c;
}

} // namespace fpraker
