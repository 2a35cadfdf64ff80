/**
 * @file
 * Whole-accelerator model: iso-compute-area FPRaker (36 tiles) vs the
 * bit-parallel baseline (8 tiles), with the shared memory system.
 *
 * For each (layer, training-op) the model:
 *  1. sizes the work in tile steps (M/N/K tiled 8x8x8),
 *  2. samples the FPRaker tile cycle-accurately on profile-shaped
 *     values (see phase_runner) to get cycles/step and stall taxonomy,
 *  3. computes off-chip traffic (operands in, result out), optionally
 *     through exponent base-delta compression,
 *  4. combines compute and memory time assuming double-buffered
 *     overlap (cycles = max(compute, memory)), and
 *  5. rolls up energy via the Table III-calibrated energy model.
 */

#ifndef FPRAKER_ACCEL_ACCELERATOR_H
#define FPRAKER_ACCEL_ACCELERATOR_H

#include <array>
#include <string>
#include <vector>

#include "accel/config.h"
#include "accel/phase_runner.h"
#include "energy/energy_model.h"
#include "sim/tile_pool.h"

namespace fpraker {

/** PE activity scaled from a sample to the full layer. */
struct ScaledPeActivity
{
    double laneUseful = 0, laneNoTerm = 0, laneShiftRange = 0;
    double laneInterPe = 0, laneExponent = 0;
    double termsProcessed = 0, termsZeroSkipped = 0, termsObSkipped = 0;
    double macs = 0;

    double
    laneCycles() const
    {
        return laneUseful + laneNoTerm + laneShiftRange + laneInterPe +
               laneExponent;
    }

    void merge(const ScaledPeActivity &o);
    static ScaledPeActivity fromStats(const PeStats &s, double scale);
};

/** Report for one (layer, op). */
struct LayerOpReport
{
    std::string layerName;
    TrainingOp op = TrainingOp::Forward;
    int64_t macs = 0;
    uint64_t tileSteps = 0; //!< Total 8x8x8 steps for the layer.

    double fprComputeCycles = 0, fprMemCycles = 0, fprCycles = 0;
    double baseComputeCycles = 0, baseMemCycles = 0, baseCycles = 0;

    TensorKind serialSide = TensorKind::Activation;
    double avgCyclesPerStep = 1.0;

    double trafficBytes = 0;           //!< Raw off-chip bytes.
    double trafficBytesCompressed = 0; //!< After BDC (if enabled).

    ScaledPeActivity activity; //!< Scaled to the full layer.
    PeStats sampleStats;       //!< Raw sample statistics.

    EnergyReport fprEnergy;
    EnergyReport baseEnergy;

    double
    speedup() const
    {
        return fprCycles > 0 ? baseCycles / fprCycles : 1.0;
    }
};

/** Whole-model report. */
struct ModelRunReport
{
    std::string model;
    double progress = 0.5;
    std::vector<LayerOpReport> ops;

    double fprCycles = 0, baseCycles = 0;
    EnergyReport fprEnergy, baseEnergy;
    ScaledPeActivity activity;

    double
    speedup() const
    {
        return fprCycles > 0 ? baseCycles / fprCycles : 1.0;
    }

    /** Speedup restricted to one training op. */
    double speedupForOp(TrainingOp op) const;

    /** Core-only energy-efficiency ratio (baseline / FPRaker). */
    double
    coreEnergyEfficiency() const
    {
        double f = fprEnergy.core.totalPj();
        return f > 0 ? baseEnergy.core.totalPj() / f : 1.0;
    }

    /** Total energy-efficiency ratio including memory. */
    double
    totalEnergyEfficiency() const
    {
        double f = fprEnergy.totalPj();
        return f > 0 ? baseEnergy.totalPj() / f : 1.0;
    }
};

/**
 * One BDC footprint analysis: base-delta compression of a fixed count
 * of @ref profile values drawn from generator @ref seed. Its footprint
 * is a pure function of those, so a process analyzes each once
 * (bdcFootprint), whatever model, variant or experiment asks.
 */
struct BdcSample
{
    ValueProfile profile;
    uint64_t seed = 0;

    /** What the analysis reads: the profile's words, seed and count. */
    using Key = std::array<uint64_t, 9>;
    Key key() const;
};

/**
 * The compressed-to-raw footprint of @p sample. One process-wide table
 * keeps the first 4096 distinct samples, each analyzed once however
 * many threads ask for it; past that cap a footprint is computed and
 * not kept, so a long-lived daemon stays bounded.
 */
double bdcFootprint(const BdcSample &sample);

/** One independent (layer, op) unit of a model run. */
struct LayerOpUnit
{
    const LayerShape *layer;
    TrainingOp op;
};

/**
 * The iso-compute-area accelerator pair: its config, energy model and
 * tile scratch pool. It runs nothing itself; a SweepRunner simulates
 * its phase samples and hands them to layerOpReport.
 */
class Accelerator
{
  public:
    explicit Accelerator(AcceleratorConfig cfg = {},
                         EnergyModelConfig energy_cfg = {});

    /**
     * The FPRaker tile's phase-sample config: samplingOf(config()),
     * this accelerator's scratch pool, the burst memo when memoize is
     * set, and @p supply (a trace-backed operand source,
     * src/workload/supply.h; null synthesizes from the model's value
     * profiles). It names no engine: a SweepRunner runs the configs
     * of many accelerators as one phase group on its own engine
     * (runPhaseSamples).
     */
    PhaseRunConfig phaseConfig(const SlabSupply *supply = nullptr) const;

    /**
     * What @p cfg fixes of a phase sample: its tile, sampling budget,
     * seed and serial-side policy (trace capture plans with it,
     * workload/supply.h).
     */
    static PhaseRunConfig samplingOf(const AcceleratorConfig &cfg);

    /**
     * The (layer, op) report derived from @p sample, this machine's
     * phase sample of it: tile steps, compute and memory cycles of
     * both machines, traffic, scaled activity and energy.
     */
    LayerOpReport layerOpReport(const ModelInfo &model,
                                const LayerShape &layer, TrainingOp op,
                                double progress,
                                const PhaseRunResult &sample) const;

    /**
     * The (layer, op) units of a model run, in report order. A sweep
     * scheduler fans these out itself (across many models/configs at
     * once) and rebuilds each report with reduceModel.
     */
    static std::vector<LayerOpUnit> modelUnits(const ModelInfo &model);

    /**
     * Reduce per-unit reports — results[i] the layerOpReport of
     * modelUnits(model)[i] — into the whole-model report, in unit
     * order (the serial reduction that keeps runs bit-identical).
     */
    static ModelRunReport reduceModel(const ModelInfo &model,
                                      double progress,
                                      std::vector<LayerOpReport> results);

    /**
     * The BDC analyses a run of @p model at @p progress reads, one per
     * tensor kind (none without BDC). A SweepRunner analyzes every
     * job's distinct samples before it fans out their phase groups.
     */
    std::vector<BdcSample> bdcSamples(const ModelInfo &model,
                                      double progress) const;

    const AcceleratorConfig &config() const { return cfg_; }
    const EnergyModel &energyModel() const { return energy_; }

  private:
    BdcSample bdcSample(const ModelInfo &model, TensorKind kind,
                        double progress) const;

    AcceleratorConfig cfg_;
    EnergyModel energy_;
    /** Shared per-burst scratch pool for this config's phase samples
     *  (thread-safe; reuse is bit-identical to fresh construction). */
    mutable TilePool tilePool_;
};

} // namespace fpraker

#endif // FPRAKER_ACCEL_ACCELERATOR_H
