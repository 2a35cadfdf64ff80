#include "workload/supply.h"

#include <cstring>

#include "common/logging.h"

namespace fpraker {
namespace workload {

namespace {

/** Values of operand @p len-per-step across the whole sample. */
size_t
streamValues(const PhasePlan &plan, size_t len)
{
    return static_cast<size_t>(plan.sampleSteps) * len;
}

/** Start of burst @p bi's window in the concatenated stream. */
size_t
windowStart(const PhasePlan &plan, size_t bi, size_t len)
{
    return bi * static_cast<size_t>(plan.stepsPerOutput) * len;
}

} // namespace

PhaseTrace
PhaseTrace::capture(const PhasePlan &plan)
{
    PhaseTrace t;
    t.plan_ = plan;
    t.serial_.resize(streamValues(plan, plan.aLen));
    t.parallel_.resize(streamValues(plan, plan.bLen));
    GeneratorSlabSupply gen(plan.serialProfile, plan.parallelProfile,
                            plan.baseSeed);
    for (size_t bi = 0; bi < plan.bursts; ++bi) {
        const size_t steps = plan.burstSteps(bi);
        gen.fillSerial(bi,
                       t.serial_.data() +
                           windowStart(plan, bi, plan.aLen),
                       steps * plan.aLen);
        gen.fillParallel(bi,
                         t.parallel_.data() +
                             windowStart(plan, bi, plan.bLen),
                         steps * plan.bLen);
    }
    return t;
}

PhaseTrace
PhaseTrace::adopt(const PhasePlan &plan, std::vector<BFloat16> serial,
                  std::vector<BFloat16> parallel)
{
    panic_if(serial.size() != streamValues(plan, plan.aLen) ||
                 parallel.size() != streamValues(plan, plan.bLen),
             "adopted streams do not match the plan geometry "
             "(%zu/%zu values for %zu/%zu)",
             serial.size(), parallel.size(),
             streamValues(plan, plan.aLen),
             streamValues(plan, plan.bLen));
    PhaseTrace t;
    t.plan_ = plan;
    t.serial_ = std::move(serial);
    t.parallel_ = std::move(parallel);
    return t;
}

const BFloat16 *
PhaseTrace::serialWindow(size_t bi) const
{
    panic_if(bi >= plan_.bursts, "burst %zu out of range", bi);
    return serial_.data() + windowStart(plan_, bi, plan_.aLen);
}

const BFloat16 *
PhaseTrace::parallelWindow(size_t bi) const
{
    panic_if(bi >= plan_.bursts, "burst %zu out of range", bi);
    return parallel_.data() + windowStart(plan_, bi, plan_.bLen);
}

void
TraceSlabSupply::fillSerial(size_t bi, BFloat16 *out, size_t n) const
{
    const PhasePlan &plan = trace_->plan();
    panic_if(n != plan.burstSteps(bi) * plan.aLen,
             "serial window of burst %zu holds %zu values, not %zu", bi,
             plan.burstSteps(bi) * plan.aLen, n);
    std::memcpy(out, trace_->serialWindow(bi), n * sizeof(BFloat16));
}

void
TraceSlabSupply::fillParallel(size_t bi, BFloat16 *out, size_t n) const
{
    const PhasePlan &plan = trace_->plan();
    panic_if(n != plan.burstSteps(bi) * plan.bLen,
             "parallel window of burst %zu holds %zu values, not %zu",
             bi, plan.burstSteps(bi) * plan.bLen, n);
    std::memcpy(out, trace_->parallelWindow(bi), n * sizeof(BFloat16));
}

PhasePlan
unitPlan(const LoweredModel &model, size_t unit,
         const AcceleratorConfig &cfg, double progress)
{
    const WorkloadUnit &u = model.units().at(unit);
    // Accelerator::phaseConfig samples with this config too, so the
    // captured streams are the ones the generator path synthesizes.
    return planPhaseSample(model.carrierOf(unit), u.shape, u.op,
                           progress, Accelerator::samplingOf(cfg));
}

WorkloadSupply::WorkloadSupply(const LoweredModel &model,
                               const AcceleratorConfig &cfg,
                               double progress)
    : model_(&model), progress_(progress)
{
    traces_.reserve(model.units().size());
    supplies_.reserve(model.units().size());
    for (size_t i = 0; i < model.units().size(); ++i) {
        traces_.push_back(std::make_unique<PhaseTrace>(
            PhaseTrace::capture(unitPlan(model, i, cfg, progress))));
        supplies_.push_back(
            std::make_unique<TraceSlabSupply>(*traces_.back()));
    }
}

const SlabSupply &
WorkloadSupply::supplyOf(size_t unit) const
{
    return *supplies_.at(unit);
}

const PhaseTrace &
WorkloadSupply::traceOf(size_t unit) const
{
    return *traces_.at(unit);
}

size_t
WorkloadSupply::totalValues() const
{
    size_t n = 0;
    for (const auto &t : traces_) {
        n += t->serialValues().size();
        n += t->parallelValues().size();
    }
    return n;
}

std::vector<SweepLayerJob>
WorkloadSupply::jobs(const Accelerator &accel) const
{
    std::vector<SweepLayerJob> out = model_->jobs(accel, progress_);
    for (size_t i = 0; i < out.size(); ++i)
        out[i].supply = supplies_[i].get();
    return out;
}

} // namespace workload
} // namespace fpraker
