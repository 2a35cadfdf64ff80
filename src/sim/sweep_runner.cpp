#include "sim/sweep_runner.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

namespace fpraker {

namespace {

/** One deduplicated BDC warm-up unit: (accelerator, model, progress). */
struct WarmUnit
{
    const Accelerator *accel;
    const ModelInfo *model;
    double progress;

    bool
    operator<(const WarmUnit &o) const
    {
        if (accel != o.accel)
            return accel < o.accel;
        if (model != o.model)
            return model < o.model;
        return progress < o.progress;
    }
};

} // namespace

/**
 * Shard the BDC warm-up prelude across the engine. The analysis is
 * pure per-(model, kind, progress) work guarded by the accelerator's
 * cache mutex, and a racing duplicate computation inserts an
 * identical value, so warming in parallel keeps the subsequent
 * fan-out allocation-quiet without affecting results. Units dedupe
 * first: a sweep usually repeats the same (accel, model, progress)
 * triple across many jobs.
 */
template <typename Job>
static void
warmBdcCaches(SimEngine &engine, const std::vector<Job> &jobs)
{
    std::vector<WarmUnit> units;
    units.reserve(jobs.size());
    for (const Job &job : jobs)
        units.push_back(WarmUnit{job.accel, job.model, job.progress});
    std::sort(units.begin(), units.end());
    units.erase(std::unique(units.begin(), units.end(),
                            [](const WarmUnit &a, const WarmUnit &b) {
                                return !(a < b) && !(b < a);
                            }),
                units.end());
    engine.parallelFor(units.size(), [&](size_t i) {
        units[i].accel->warmBdcCache(*units[i].model,
                                     units[i].progress);
    });
}

SweepRunner::SweepRunner(int threads)
    : ownedEngine_(std::make_unique<SimEngine>(threads)),
      engine_(ownedEngine_.get())
{
}

SweepRunner::SweepRunner(SimEngine *shared)
    : engine_(shared)
{
    panic_if(!shared, "borrowed engine must not be null");
}

SweepRunner::~SweepRunner() = default;

const Accelerator &
SweepRunner::addAccelerator(const AcceleratorConfig &cfg,
                            const EnergyModelConfig &ecfg)
{
    accels_.push_back(
        std::make_unique<Accelerator>(cfg, ecfg, engine_));
    return *accels_.back();
}

std::vector<ModelRunReport>
SweepRunner::runModels(const std::vector<SweepJob> &jobs)
{
    // Flatten every job into its (layer, op) units so a sweep of many
    // small models fills the pool as well as one large model. The BDC
    // caches warm up front, themselves sharded across the engine, so
    // the unit fan-out only reads them.
    for (const SweepJob &job : jobs)
        panic_if(!job.accel || !job.model, "incomplete sweep job");
    warmBdcCaches(*engine_, jobs);

    struct Unit
    {
        size_t job;
        LayerOpUnit u;
    };
    std::vector<Unit> units;
    std::vector<size_t> first(jobs.size() + 1, 0);
    for (size_t j = 0; j < jobs.size(); ++j) {
        const SweepJob &job = jobs[j];
        first[j] = units.size();
        for (const LayerOpUnit &u : Accelerator::modelUnits(*job.model))
            units.push_back(Unit{j, u});
    }
    first[jobs.size()] = units.size();

    std::vector<LayerOpReport> results(units.size());
    engine_->parallelFor(units.size(), [&](size_t i) {
        const Unit &unit = units[i];
        const SweepJob &job = jobs[unit.job];
        obs::TraceSpan span(
            "sweep", obs::TraceCollector::instance().enabled()
                         ? unit.u.layer->name + ":" +
                               opLabel(unit.u.op)
                         : std::string());
        results[i] = job.accel->runLayerOp(*job.model, *unit.u.layer,
                                           unit.u.op, job.progress);
    });

    // Reduce per job, in job order.
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
    for (const SweepLayerJob &job : jobs)
        panic_if(!job.accel || !job.model || !job.layer,
                 "incomplete sweep layer job");
    warmBdcCaches(*engine_, jobs);
    std::vector<LayerOpReport> results(jobs.size());
    engine_->parallelFor(jobs.size(), [&](size_t i) {
        const SweepLayerJob &job = jobs[i];
        obs::TraceSpan span(
            "sweep", obs::TraceCollector::instance().enabled()
                         ? job.layer->name + ":" + opLabel(job.op)
                         : std::string());
        results[i] = job.accel->runLayerOp(*job.model, *job.layer,
                                           job.op, job.progress,
                                           job.supply);
    });
    return results;
}

void
SweepRunner::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    engine_->parallelFor(n, fn);
}

} // namespace fpraker
