/**
 * @file
 * Whole-sweep scheduling: one engine for every (model, config, phase)
 * job of an evaluation.
 *
 * PR 1 parallelized a single (layer, op) unit and a single model run;
 * the figure/table harnesses still walked the model zoo and config
 * grid serially, so a sweep's wall-clock was the sum of its model
 * runs. SweepRunner lifts the shard grain to the whole evaluation:
 *
 *  - every accelerator variant of a sweep is bound to ONE shared
 *    SimEngine (addAccelerator), so workers drain a single queue
 *    instead of each model run spinning up its own pool;
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
 * pre-warmed BDC caches); every job writes its own result slot;
 * reductions run serially in job order; and all sampling inside a
 * burst seeds RNG substreams by burst index (trace/rng_stream.h), so
 * a shared slab holds exactly the bytes each machine would have
 * filled alone. Reports are therefore bit-identical at any thread
 * count, and to each job run alone through Accelerator::runLayerOp.
 *
 * Memoization: every accelerator a runner builds hands its phase
 * samples the process-wide SimMemo::global(), so a job that
 * re-simulates a burst of an identical (tile context, plan) phase —
 * a later sweep or `fpraker run --all` experiment over the same zoo,
 * a larger sample budget of the same layer — hits warm and skips the
 * tile. A varied tile knob changes the tile context, so only a grid
 * point equal to an earlier config hits. Within one group, machines
 * with equal burst keys (equal tile contexts, or progress points a
 * constant profile cannot tell apart) simulate once. Cached values
 * are byte copies of the identical computation, so reports stay
 * bit-identical whether the memo is cold, warm, or off
 * (FPRAKER_MEMO=off).
 */

#ifndef FPRAKER_SIM_SWEEP_RUNNER_H
#define FPRAKER_SIM_SWEEP_RUNNER_H

#include <memory>
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

/** Shards an entire evaluation sweep across one shared engine. */
class SweepRunner
{
  public:
    /** @param threads worker count; 1 = serial, 0 = defaultThreads(). */
    explicit SweepRunner(int threads = 0);

    /**
     * Borrow @p shared as the engine instead of owning one. This is
     * how `fpraker run --all` drives many concurrent experiments (each
     * with its own Session/SweepRunner) through ONE worker pool: the
     * experiments shard across the engine, and their inner fan-outs
     * re-enter it (nested parallelFor degrades to inline execution).
     * @p shared must outlive the runner.
     */
    explicit SweepRunner(SimEngine *shared);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /** The shared engine (for ad-hoc parallelFor use). */
    SimEngine &engine() { return *engine_; }
    int threads() const { return engine_->threads(); }

    /**
     * Build an accelerator variant bound to the shared engine and keep
     * it alive for the runner's lifetime (cfg.threads is ignored — the
     * runner's engine is the only pool). Returned reference is stable.
     */
    const Accelerator &addAccelerator(const AcceleratorConfig &cfg,
                                      const EnergyModelConfig &ecfg = {});

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
    std::unique_ptr<SimEngine> ownedEngine_; //!< Null when borrowing.
    SimEngine *engine_;
    std::vector<std::unique_ptr<Accelerator>> accels_;
};

} // namespace fpraker

#endif // FPRAKER_SIM_SWEEP_RUNNER_H
