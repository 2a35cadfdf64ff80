#include "sim/sweep_runner.h"

#include <iterator>
#include <map>
#include <tuple>

#include "common/logging.h"
#include "obs/trace.h"

namespace fpraker {

/**
 * Analyze every BDC sample the jobs read, each distinct one once,
 * sharded across the engine. Footprints are pure functions of their
 * samples and the process-wide table analyzes a sample once, so
 * warming in parallel leaves the group fan-out only reading it without
 * affecting results.
 */
static void
warmBdcFootprints(SimEngine &engine, const std::vector<SweepLayerJob> &jobs)
{
    std::map<BdcSample::Key, BdcSample> distinct;
    for (const SweepLayerJob &job : jobs)
        for (const BdcSample &sample :
             job.accel->bdcSamples(*job.model, job.progress))
            distinct.try_emplace(sample.key(), sample);
    std::vector<const BdcSample *> samples;
    samples.reserve(distinct.size());
    for (const auto &entry : distinct)
        samples.push_back(&entry.second);
    engine.parallelFor(samples.size(),
                       [&](size_t i) { bdcFootprint(*samples[i]); });
}

std::vector<ModelRunReport>
SweepRunner::runModels(const std::vector<SweepJob> &jobs)
{
    // Every job's (layer, op) units become layer jobs, which
    // runLayerOps groups by phase and shards; the reports then reduce
    // per job, in job order.
    std::vector<SweepLayerJob> units;
    std::vector<size_t> first(jobs.size() + 1, 0);
    for (size_t j = 0; j < jobs.size(); ++j) {
        const SweepJob &job = jobs[j];
        panic_if(!job.accel || !job.model, "incomplete sweep job");
        first[j] = units.size();
        for (const LayerOpUnit &u : Accelerator::modelUnits(*job.model))
            units.push_back(SweepLayerJob{job.accel, job.model, u.layer,
                                          u.op, job.progress});
    }
    first[jobs.size()] = units.size();
    std::vector<LayerOpReport> results = runLayerOps(units);

    std::vector<ModelRunReport> reports;
    reports.reserve(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        std::vector<LayerOpReport> slice(
            std::make_move_iterator(results.begin() +
                                    static_cast<ptrdiff_t>(first[j])),
            std::make_move_iterator(results.begin() +
                                    static_cast<ptrdiff_t>(first[j + 1])));
        reports.push_back(Accelerator::reduceModel(
            *jobs[j].model, jobs[j].progress, std::move(slice)));
    }
    return reports;
}

std::vector<LayerOpReport>
SweepRunner::runLayerOps(const std::vector<SweepLayerJob> &jobs)
{
    // The BDC footprints warm up front, themselves sharded across the
    // engine, so the group fan-out only reads them.
    for (const SweepLayerJob &job : jobs)
        panic_if(!job.accel || !job.model || !job.layer,
                 "incomplete sweep layer job");
    warmBdcFootprints(engine_, jobs);

    // One group per (model, layer, op, supply), in order of first
    // appearance: every job that samples that phase from one operand
    // source, whatever its accelerator or progress point. A group
    // fills each burst's distinct operand slabs once for all its
    // machines (runPhaseSamples).
    using GroupKey = std::tuple<const ModelInfo *, const LayerShape *,
                                TrainingOp, const SlabSupply *>;
    std::map<GroupKey, size_t> index;
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const SweepLayerJob &job = jobs[i];
        auto [it, fresh] = index.try_emplace(
            GroupKey{job.model, job.layer, job.op, job.supply},
            groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }

    std::vector<LayerOpReport> results(jobs.size());
    engine_.parallelFor(groups.size(), [&](size_t g) {
        const std::vector<size_t> &group = groups[g];
        const SweepLayerJob &lead = jobs[group.front()];
        obs::TraceSpan span(
            "sweep", obs::TraceCollector::instance().enabled()
                         ? lead.layer->name + ":" + opLabel(lead.op)
                         : std::string());
        // The runner's engine shards every group's bursts.
        std::vector<PhaseMachine> machines;
        machines.reserve(group.size());
        for (size_t i : group) {
            machines.push_back(PhaseMachine{
                jobs[i].accel->phaseConfig(jobs[i].supply),
                jobs[i].progress});
            machines.back().cfg.engine = &engine_;
        }
        std::vector<PhaseRunResult> samples = runPhaseSamples(
            *lead.model, *lead.layer, lead.op, machines);
        for (size_t k = 0; k < group.size(); ++k) {
            const SweepLayerJob &job = jobs[group[k]];
            results[group[k]] = job.accel->layerOpReport(
                *job.model, *job.layer, job.op, job.progress, samples[k]);
        }
    });
    return results;
}

void
SweepRunner::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    engine_.parallelFor(n, fn);
}

} // namespace fpraker
