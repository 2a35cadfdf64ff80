#include "sim/sim_engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/parse.h"
#include "obs/metrics.h"

namespace fpraker {

namespace {

FPRAKER_METRIC_COUNTER(g_batches, "sim.parallel_for.batches",
                       "parallelFor batches dispatched");
FPRAKER_METRIC_COUNTER(g_units, "sim.parallel_for.units",
                       "parallelFor loop indices executed");
FPRAKER_METRIC_COUNTER(
    g_unitsStolen, "sim.parallel_for.units_stolen",
    "parallelFor loop indices claimed by pool helpers (not the caller)");

/** Shared state of one parallelFor batch (outlives abandoned tasks). */
struct Batch
{
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    const std::function<void(size_t)> *fn = nullptr;
    std::mutex mutex;
    std::condition_variable cv;
};

/** Claim and run indices until the batch is exhausted. */
void
drain(const std::shared_ptr<Batch> &batch, bool helper)
{
    uint64_t claimed = 0;
    for (;;) {
        size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch->n)
            break;
        ++claimed;
        (*batch->fn)(i);
        if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            batch->n) {
            std::lock_guard<std::mutex> lock(batch->mutex);
            batch->cv.notify_all();
        }
    }
    if (claimed) {
        g_units.add(claimed);
        if (helper)
            g_unitsStolen.add(claimed);
    }
}

} // namespace

SimEngine::SimEngine(int threads)
    : threads_(threads > 0 ? threads : defaultThreads())
{
    panic_if(threads < 0, "negative thread count %d", threads);
    // The caller participates in every batch, so the pool provides
    // threads-1 helpers — capped at the host's spare cores, because
    // oversubscribing only adds scheduling latency (results are
    // bit-identical either way).
    int spare =
        static_cast<int>(std::thread::hardware_concurrency()) - 1;
    int workers = threads_ - 1;
    if (spare >= 0)
        workers = std::min(workers, spare);
    if (workers > 0)
        pool_ = std::make_unique<ThreadPool>(workers);
}

SimEngine::~SimEngine() = default;

void
SimEngine::parallelFor(size_t n,
                       const std::function<void(size_t)> &fn) const
{
    if (threads_ <= 1 || n <= 1 || !pool_) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        if (n) {
            g_batches.add();
            g_units.add(static_cast<uint64_t>(n));
        }
        return;
    }

    g_batches.add();
    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;

    // Helpers race the caller for indices; an extra helper that arrives
    // after exhaustion returns immediately, so over-posting is harmless
    // and tasks never dereference fn once the caller has returned.
    size_t helpers =
        std::min<size_t>(static_cast<size_t>(pool_->workers()), n - 1);
    pool_->postCopies([batch] { drain(batch, /*helper=*/true); },
                      static_cast<int>(helpers));

    drain(batch, /*helper=*/false);

    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->cv.wait(lock, [&] {
        return batch->done.load(std::memory_order_acquire) == batch->n;
    });
}

int
SimEngine::defaultThreads()
{
    const char *env = std::getenv("FPRAKER_THREADS");
    if (!env || !*env)
        return 1;
    int v = 0;
    fatal_if(!parsePositiveInt(env, &v),
             "FPRAKER_THREADS=%s: expected a positive decimal integer "
             "in [1, 1e9]",
             env);
    return v;
}

} // namespace fpraker
