/**
 * @file
 * Sampled cycle-level simulation of one layer-op on an FPRaker tile.
 *
 * The paper samples one random mini-batch per epoch and replays it in a
 * custom simulator; we sample a bounded number of tile steps per
 * (layer, op, progress) from the model's value profiles, simulate them
 * cycle-accurately on one tile, and scale cycles to the full layer
 * (all tiles run the same statistical workload, so per-step averages
 * transfer).
 *
 * The serial (term-processed) operand is chosen per layer and op — the
 * paper lets the accelerator "target those tensors that have more
 * sparsity depending on the layer and the pass" — by picking the
 * operand with the lower expected term density.
 *
 * The burst is the one unit a phase shards and memoizes: a burst covers
 * one output block (the accumulators reset between blocks), seeds its
 * own RNG substreams (substreamSeed(base, burst) — a function of the
 * burst index, never of the executing worker), and runs a private
 * tile. When the config carries a SimEngine the bursts shard across
 * it, bit-identical to the serial walk at any thread count; when it
 * carries a SimMemo, each generator-backed burst is looked up by its
 * plan before it leases scratch or fills operands.
 *
 * One (layer, op) phase can run on several machines at once
 * (runPhaseSamples: a sweep's accelerator variants and progress
 * points of one model layer). Burst bi of every machine then runs as
 * one task: it looks up each machine's memo, fills each distinct
 * operand slab the missing machines need once and classifies it once
 * per term encoding, runs each missing machine's tile on views into
 * those slabs, and serves a machine whose burst key equals an earlier
 * machine's from that machine's result, as a memo hit would. Missing
 * machines that differ only in timing (datapathOf, tile/tile.h) run
 * one tile, and each of the others is retimed from its recorded set
 * cycles (Tile::retime). Slabs live for that one burst.
 * runPhaseSample is the one-machine case.
 */

#ifndef FPRAKER_ACCEL_PHASE_RUNNER_H
#define FPRAKER_ACCEL_PHASE_RUNNER_H

#include <algorithm>
#include <vector>

#include "sim/sim_engine.h"
#include "sim/sim_memo.h"
#include "sim/tile_pool.h"
#include "tile/tile.h"
#include "trace/model_zoo.h"
#include "trace/tensor_gen.h"

namespace fpraker {

/** Parameters of a sampled phase run. */
struct PhaseRunConfig
{
    TileConfig tile;
    int sampleSteps = 192;    //!< Tile steps to simulate.
    int stepsPerOutput = 32;  //!< K fragments before accumulator reset.
    uint64_t seed = 1;
    bool autoSerialSide = true; //!< Pick the sparser operand as serial.
    SimEngine *engine = nullptr; //!< Optional burst-sharding executor.
    /**
     * Optional scratch pool (its config must equal @p tile): bursts
     * borrow pooled tile scratch instead of constructing fresh —
     * bit-identical, just allocation-free. Null constructs per burst.
     */
    TilePool *pool = nullptr;
    /**
     * Optional operand source. Null uses the generator-backed supply
     * derived from the model profiles (the historical path); a
     * workload trace passes its TraceSlabSupply here. The supply must
     * honor the burst/window geometry of planPhaseSample(), and
     * results stay bit-identical at any thread count as long as the
     * supply is a pure function of the burst index.
     */
    const SlabSupply *supply = nullptr;
    /**
     * Optional burst memo (sim/sim_memo.h); null simulates every
     * burst. A generator-backed burst is keyed by the tile context,
     * the plan minus its sample budget, and its index and length, so
     * phases that differ only in budget share their leading bursts.
     * Trace-backed phases (@ref supply) always simulate. A hit is a
     * byte copy of the identical computation, so memo-on and memo-off
     * runs are bit-identical.
     */
    SimMemo *memo = nullptr;
};

/**
 * The sampling geometry of one (layer, op, progress) phase: which
 * operand is serialized, the value profiles in play, the RNG base
 * seed, and the burst/window sizes. runPhaseSample() derives this
 * plan internally; trace capture (workload/supply.h) uses the same
 * plan to record byte-identical streams.
 */
struct PhasePlan
{
    TensorKind serialSide = TensorKind::Activation;
    TensorKind parallelSide = TensorKind::Weight;
    ValueProfile serialProfile;
    ValueProfile parallelProfile;
    uint64_t baseSeed = 0;
    int sampleSteps = 0;
    int stepsPerOutput = 0; //!< Effective (capped at the K traversal).
    size_t bursts = 0;
    size_t aLen = 0; //!< Serial-operand values per tile step.
    size_t bLen = 0; //!< Parallel-operand values per tile step.

    /** Tile steps in burst @p bi (the last burst may be short). */
    size_t
    burstSteps(size_t bi) const
    {
        size_t first = bi * static_cast<size_t>(stepsPerOutput);
        return std::min<size_t>(
            static_cast<size_t>(sampleSteps) - first,
            static_cast<size_t>(stepsPerOutput));
    }
};

/** Derive the sampling plan of one (layer, op) phase under @p cfg. */
PhasePlan planPhaseSample(const ModelInfo &model, const LayerShape &layer,
                          TrainingOp op, double progress,
                          const PhaseRunConfig &cfg);

/** Result of a sampled phase run. */
struct PhaseRunResult
{
    double avgCyclesPerStep = 1.0;
    PeStats peStats;            //!< Aggregated over the sampled tile.
    TensorKind serialSide = TensorKind::Activation;
    TensorStats serialStats;    //!< Measured stats of the serial stream.
    TensorStats parallelStats;
    uint64_t steps = 0;
};

/** One machine of a grouped phase run and its training-progress point. */
struct PhaseMachine
{
    PhaseRunConfig cfg;
    double progress = 0.5;
};

/**
 * Run one sampled (layer, op) phase on every machine of @p machines,
 * sharing each burst's operand slabs between them; results come back
 * in machine order, each bit-identical to that machine run alone. The
 * machines must share one engine and one supply.
 */
std::vector<PhaseRunResult>
runPhaseSamples(const ModelInfo &model, const LayerShape &layer,
                TrainingOp op, const std::vector<PhaseMachine> &machines);

/** Run one sampled (layer, op) phase on one machine. */
PhaseRunResult runPhaseSample(const ModelInfo &model,
                              const LayerShape &layer, TrainingOp op,
                              double progress, const PhaseRunConfig &cfg);

/**
 * Pick the serial operand for (model, op, progress): the tensor with
 * the lower expected term count per value.
 */
TensorKind chooseSerialSide(const ModelInfo &model, TrainingOp op,
                            double progress);

} // namespace fpraker

#endif // FPRAKER_ACCEL_PHASE_RUNNER_H
