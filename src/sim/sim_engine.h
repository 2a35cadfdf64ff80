/**
 * @file
 * Deterministic parallel execution of independent simulation units.
 *
 * The simulator's work decomposes into units that share no mutable
 * state: the (layer, op) jobs of a whole-model run and the bursts of a
 * phase sample. SimEngine shards such index spaces across
 * a worker pool; each unit writes only to its own result slot and the
 * caller reduces the slots in index order, so the outcome is
 * bit-identical for any thread count (threads=1 short-circuits to a
 * plain serial loop).
 *
 * parallelFor is re-entrant: a unit may itself call parallelFor (a
 * model run fanning out layer-ops whose phase samples fan out
 * bursts). The calling thread always participates in its own batch,
 * so nesting degrades to inline execution instead of deadlocking when
 * all workers are busy.
 */

#ifndef FPRAKER_SIM_SIM_ENGINE_H
#define FPRAKER_SIM_SIM_ENGINE_H

#include <functional>
#include <memory>

#include "sim/thread_pool.h"

namespace fpraker {

/** Sharded, deterministic executor for independent simulation units. */
class SimEngine
{
  public:
    /**
     * @param threads worker count; 1 = serial, 0 = defaultThreads().
     */
    explicit SimEngine(int threads = 0);
    ~SimEngine();

    SimEngine(const SimEngine &) = delete;
    SimEngine &operator=(const SimEngine &) = delete;

    /** Effective thread count (>= 1). */
    int threads() const { return threads_; }

    /**
     * Run fn(0) .. fn(n-1), sharded across the pool; returns when all
     * calls completed. fn must only touch state owned by its index.
     * Serial (threads() == 1) runs the same loop inline.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn) const;

    /**
     * Thread count used when a config leaves the knob at 0: the
     * FPRAKER_THREADS environment variable, else 1 (the deterministic
     * serial baseline; parallelism is opt-in).
     */
    static int defaultThreads();

  private:
    int threads_;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace fpraker

#endif // FPRAKER_SIM_SIM_ENGINE_H
