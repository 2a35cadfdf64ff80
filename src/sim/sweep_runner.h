/**
 * @file
 * Whole-sweep scheduling: one engine for every (model, config, phase)
 * job of an evaluation.
 *
 * SweepRunner is the one thing that drives simulations. An
 * Accelerator (accel/accelerator.h) only models the machine; a runner
 * shards the jobs of a whole evaluation across one engine:
 *
 *  - the runner borrows the engine its entry point owns (`fpraker
 *    run` and fprakerd's scheduler each make one per process), so
 *    every experiment and every sweep drains a single worker queue;
 *  - runLayerOps shards phase groups: one group per (model, layer,
 *    op, supply), holding every job that samples that phase whatever
 *    its accelerator or progress point. A group runs burst by burst
 *    (runPhaseSamples), filling each distinct operand slab once for
 *    all its machines, so a sweep's variants share the synthesized
 *    operands instead of each regenerating them;
 *  - runModels flattens all jobs into their (layer, op) units and
 *    runs them through runLayerOps — a sweep of many small models
 *    saturates the pool just as well as one large model;
 *  - parallelFor shards any other per-model measurement loop (the
 *    sparsity/compression harnesses that never build an accelerator).
 *
 * Determinism: jobs only read shared state (models, configs, the
 * pre-warmed BDC footprints); every job writes its own result slot;
 * reductions run serially in job order; and all sampling inside a
 * burst seeds RNG substreams by burst index (trace/rng_stream.h), so
 * a shared slab holds exactly the bytes each machine would have
 * filled alone. Reports are therefore bit-identical at any thread
 * count, and to each job run alone as a one-job sweep.
 *
 * Memoization: every accelerator with memoize set hands its phase
 * samples the process-wide SimMemo::global(), so a job that
 * re-simulates a burst of an identical (tile context, plan) phase —
 * a later sweep or `fpraker run --all` experiment over the same zoo,
 * a larger sample budget of the same layer — hits warm and skips the
 * tile. A varied tile knob changes the tile context, so only a grid
 * point equal to an earlier config hits. Within one group, machines
 * with equal burst keys (equal tile contexts, or progress points a
 * constant profile cannot tell apart) simulate once, and machines
 * that differ only in timing (datapathOf) run one tile between them.
 * Cached values
 * are byte copies of the identical computation, so reports stay
 * bit-identical whether the memo is cold, warm, or off
 * (FPRAKER_MEMO=off).
 */

#ifndef FPRAKER_SIM_SWEEP_RUNNER_H
#define FPRAKER_SIM_SWEEP_RUNNER_H

#include <vector>

#include "accel/accelerator.h"
#include "sim/sim_engine.h"

namespace fpraker {

/** One (model, config, phase) job of a sweep. */
struct SweepJob
{
    const Accelerator *accel; //!< Variant to simulate on.
    const ModelInfo *model;
    double progress = 0.5; //!< Training-progress point ("phase").
};

/** One layer-grain job (per-layer config sweeps, inference). */
struct SweepLayerJob
{
    const Accelerator *accel;
    const ModelInfo *model;
    const LayerShape *layer;
    TrainingOp op = TrainingOp::Forward;
    double progress = 0.5;
    /** Optional trace-backed operand source (null = generator). */
    const SlabSupply *supply = nullptr;
};

/** Shards an entire evaluation sweep across one borrowed engine. */
class SweepRunner
{
  public:
    /**
     * Run on @p engine, which must outlive the runner. Runners of
     * concurrent experiments may share one engine: their fan-outs
     * re-enter it (nested parallelFor degrades to inline execution).
     */
    explicit SweepRunner(SimEngine &engine) : engine_(engine) {}

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    int threads() const { return engine_.threads(); }

    /**
     * Run every job: its (layer, op) units go through runLayerOps and
     * reduce per job; reports come back in job order, bit-identical
     * to a serial walk for any thread count.
     */
    std::vector<ModelRunReport> runModels(const std::vector<SweepJob> &jobs);

    /**
     * Run layer-grain jobs, sharding their phase groups across the
     * engine; results come back in job order.
     */
    std::vector<LayerOpReport>
    runLayerOps(const std::vector<SweepLayerJob> &jobs);

    /**
     * Shard an arbitrary ordered index space (per-model measurement
     * loops). fn(i) must only touch state owned by index i; the caller
     * reduces the slots in index order after the barrier.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

  private:
    SimEngine &engine_;
};

} // namespace fpraker

#endif // FPRAKER_SIM_SWEEP_RUNNER_H
