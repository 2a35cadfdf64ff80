#include "reference.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <thread>
#include <vector>

namespace fpbench {
namespace {

/** Keeps the compiler from dropping the reference's work. */
std::atomic<uint64_t> sink{0};

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int64_t
referenceNs(int threads)
{
    const int chunks = 16 * threads;
    std::atomic<int> next{0};
    auto work = [&] {
        std::vector<uint32_t> table(1 << 16);
        const size_t mask = table.size() - 1;
        uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
        float f = 1.0f;
        while (next.fetch_add(1) < chunks) {
            for (int i = 0; i < (1 << 20); ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                uint32_t &slot = table[x & mask];
                slot += static_cast<uint32_t>(x >> 32);
                acc += std::popcount(slot) +
                       std::countl_zero(static_cast<uint32_t>(x) | 1u);
                f = f * 0.999f + static_cast<float>(slot & 0xff) * 1e-3f;
            }
        }
        sink += acc + static_cast<uint64_t>(f);
    };
    const int64_t t0 = steadyNs();
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();
    return steadyNs() - t0;
}

} // namespace fpbench
