/**
 * @file
 * Trace-backed data supply: recorded operand streams replayed through
 * the SlabSupply seam.
 *
 * A PhaseTrace materializes the exact per-burst operand windows of one
 * sampled (layer, op) phase — the same geometry planPhaseSample()
 * derives, captured through the batched SIMD fill path — and
 * TraceSlabSupply replays them. Replay is a pure function of the burst
 * index (a window copy), so trace-backed runs keep the bit-exact
 * determinism contract at any thread count, and capture-from-generator
 * guarantees trace-backed and generator-backed slabs are bit-identical
 * by construction (tests/test_workload.cpp asserts both properties).
 *
 * WorkloadSupply bundles one trace per unit of a LoweredModel so a
 * whole model sweep can run trace-backed (ingestion-shaped: the
 * simulator consumes recorded streams, not a live generator).
 */

#ifndef FPRAKER_WORKLOAD_SUPPLY_H
#define FPRAKER_WORKLOAD_SUPPLY_H

#include <memory>
#include <vector>

#include "accel/phase_runner.h"
#include "workload/lowering.h"

namespace fpraker {
namespace workload {

/** Recorded serial/parallel operand streams of one sampled phase. */
class PhaseTrace
{
  public:
    /**
     * Record the streams the generator-backed supply synthesizes for
     * @p plan: one serial and one parallel window per burst, filled
     * through the batched SIMD path.
     */
    static PhaseTrace capture(const PhasePlan &plan);

    /**
     * Adopt externally produced streams laid out like capture()'s
     * (per-burst windows concatenated in burst order). Sizes must
     * match @p plan exactly.
     */
    static PhaseTrace adopt(const PhasePlan &plan,
                            std::vector<BFloat16> serial,
                            std::vector<BFloat16> parallel);

    const PhasePlan &plan() const { return plan_; }
    const std::vector<BFloat16> &serialValues() const { return serial_; }
    const std::vector<BFloat16> &parallelValues() const
    {
        return parallel_;
    }

    /** Burst @p bi's serial window (n = burstSteps(bi) * aLen). */
    const BFloat16 *serialWindow(size_t bi) const;
    const BFloat16 *parallelWindow(size_t bi) const;

  private:
    PhaseTrace() = default;

    PhasePlan plan_;
    std::vector<BFloat16> serial_;
    std::vector<BFloat16> parallel_;
};

/** Replays a PhaseTrace through the SlabSupply seam. */
class TraceSlabSupply final : public SlabSupply
{
  public:
    /** Borrows @p trace, which must outlive the supply. */
    explicit TraceSlabSupply(const PhaseTrace &trace) : trace_(&trace)
    {
    }

    void fillSerial(size_t bi, BFloat16 *out, size_t n) const override;
    void fillParallel(size_t bi, BFloat16 *out,
                      size_t n) const override;

  private:
    const PhaseTrace *trace_;
};

/**
 * Trace-backed supplies for every unit of a lowered model under one
 * accelerator config: each unit's phase plan is derived exactly as a
 * sweep derives it from Accelerator::phaseConfig, its streams are
 * captured, and jobs() hands back the model's sweep jobs with the
 * supplies attached.
 */
class WorkloadSupply
{
  public:
    WorkloadSupply(const LoweredModel &model, const AcceleratorConfig &cfg,
                   double progress);

    WorkloadSupply(const WorkloadSupply &) = delete;
    WorkloadSupply &operator=(const WorkloadSupply &) = delete;

    const SlabSupply &supplyOf(size_t unit) const;
    const PhaseTrace &traceOf(size_t unit) const;

    /** Recorded values across all units (for reporting). */
    size_t totalValues() const;

    /** The model's jobs with this supply's traces attached. */
    std::vector<SweepLayerJob> jobs(const Accelerator &accel) const;

  private:
    const LoweredModel *model_;
    double progress_;
    std::vector<std::unique_ptr<PhaseTrace>> traces_;
    std::vector<std::unique_ptr<TraceSlabSupply>> supplies_;
};

/** The phase plan a sweep samples for @p unit of @p model. */
PhasePlan unitPlan(const LoweredModel &model, size_t unit,
                   const AcceleratorConfig &cfg, double progress);

} // namespace workload
} // namespace fpraker

#endif // FPRAKER_WORKLOAD_SUPPLY_H
