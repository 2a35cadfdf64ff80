#include "train/mac_modes.h"

#include <cmath>

#include "common/logging.h"
#include "pe/value_mac.h"

namespace fpraker {

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
    return dotStrided(a, b, n, 1);
}

float
MacEngine::dotStrided(const float *a, const float *b, size_t n,
                      size_t b_stride) const
{
    switch (mode_) {
      case MacMode::NativeFp32: {
        float sum = 0.0f;
        for (size_t i = 0; i < n; ++i)
            sum = std::fma(a[i], b[i * b_stride], sum);
        return sum;
      }
      case MacMode::Bf16Chunked: {
        ChunkedAccumulator acc(peCfg_.acc);
        for (size_t i = 0; i < n; ++i)
            acc.addProduct(BFloat16::fromFloat(a[i]),
                           BFloat16::fromFloat(b[i * b_stride]));
        return acc.total();
      }
      case MacMode::FPRakerEmulated: {
        FPRakerValueMac mac(peCfg_);
        const int lanes = peCfg_.lanes;
        BFloat16 sa[FPRakerValueMac::kMaxLanes];
        BFloat16 sb[FPRakerValueMac::kMaxLanes];
        int fill = 0;
        for (size_t i = 0; i < n; ++i) {
            sa[fill] = BFloat16::fromFloat(a[i]);
            sb[fill] = BFloat16::fromFloat(b[i * b_stride]);
            if (++fill == lanes) {
                mac.processSet(sa, sb);
                fill = 0;
            }
        }
        if (fill > 0) {
            // A ragged tail runs as a whole set padded with zero pairs,
            // so every set ticks the chunk counter by cfg.lanes.
            for (int l = fill; l < lanes; ++l)
                sa[l] = sb[l] = BFloat16();
            mac.processSet(sa, sb);
        }
        return mac.total();
      }
    }
    panic("bad mac mode");
}

} // namespace fpraker
