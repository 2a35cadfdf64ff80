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

/** Bf16Chunked: every product through the chunked register. */
float
chunkedDot(const BFloat16 *a, const BFloat16 *b, size_t n,
           const AccumulatorConfig &cfg)
{
    ChunkedAccumulator acc(cfg);
    for (size_t i = 0; i < n; ++i)
        acc.addProduct(a[i], b[i]);
    return acc.total();
}

/** FPRakerEmulated: sets of cfg.lanes pairs through the value MAC. */
float
fprakerDot(const BFloat16 *a, const BFloat16 *b, size_t n,
           const PeConfig &cfg)
{
    FPRakerValueMac mac(cfg);
    const size_t lanes = static_cast<size_t>(cfg.lanes);
    size_t i = 0;
    for (; i + lanes <= n; i += lanes)
        mac.processSet(a + i, b + i);
    if (i < n) {
        // A ragged tail runs as a whole set padded with zero pairs,
        // so every set ticks the chunk counter by cfg.lanes.
        BFloat16 sa[FPRakerValueMac::kMaxLanes] = {};
        BFloat16 sb[FPRakerValueMac::kMaxLanes] = {};
        std::copy(a + i, a + n, sa);
        std::copy(b + i, b + n, sb);
        mac.processSet(sa, sb);
    }
    return mac.total();
}

/** One dot of bfloat16 rows under a bf16 mode. */
float
bf16Dot(MacMode mode, const PeConfig &cfg, const BFloat16 *a,
        const BFloat16 *b, size_t n)
{
    return mode == MacMode::Bf16Chunked ? chunkedDot(a, b, n, cfg.acc)
                                        : fprakerDot(a, b, n, cfg);
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

/** C(i, j) = dot(row i of @p a, row j of @p bt), rows of length n. */
template <typename T, typename Dot>
Matrix
rowPairs(const T *a, size_t a_rows, const T *bt, size_t bt_rows, size_t n,
         Dot dot)
{
    Matrix c(a_rows, bt_rows);
    for (size_t i = 0; i < a_rows; ++i)
        for (size_t j = 0; j < bt_rows; ++j)
            c.at(i, j) = dot(a + i * n, bt + j * n, n);
    return c;
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
    return bf16Dot(mode_, peCfg_, ah.data(), bh.data(), n);
}

Matrix
MacEngine::matmulT(const Matrix &a, const Matrix &bt) const
{
    panic_if(a.cols() != bt.cols(),
             "matmulT inner dimensions differ (%zu vs %zu)", a.cols(),
             bt.cols());
    const size_t n = a.cols();
    if (mode_ == MacMode::NativeFp32)
        return rowPairs(a.data(), a.rows(), bt.data(), bt.rows(), n,
                        fp32Dot);
    const std::vector<BFloat16> ah = toBf16(a.data(), a.size());
    const std::vector<BFloat16> bh = toBf16(bt.data(), bt.size());
    return rowPairs(ah.data(), a.rows(), bh.data(), bt.rows(), n,
                    [this](const BFloat16 *x, const BFloat16 *y,
                           size_t k) {
                        return bf16Dot(mode_, peCfg_, x, y, k);
                    });
}

} // namespace fpraker
