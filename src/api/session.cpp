#include "api/session.h"

#include <cstdio>
#include <cstdlib>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/parse.h"
#include "trace/model_zoo.h"

namespace fpraker {
namespace api {

AcceleratorVariants
makeVariants(int sample_steps)
{
    AcceleratorVariants v;
    v.full = AcceleratorConfig::paperDefault();
    v.full.sampleSteps = sample_steps;

    v.zeroBdc = v.full;
    v.zeroBdc.tile.pe.skipOutOfBounds = false;

    v.zeroOnly = v.zeroBdc;
    v.zeroOnly.useBdc = false;
    return v;
}

std::vector<SweepJob>
zooJobs(const std::vector<const Accelerator *> &variants, double progress)
{
    std::vector<SweepJob> jobs;
    for (const Accelerator *accel : variants)
        for (const auto &model : modelZoo())
            jobs.push_back(SweepJob{accel, &model, progress});
    return jobs;
}

Session &
Session::threads(int n)
{
    panic_if(runner_ != nullptr,
             "Session::threads must be set before the runner is used");
    panic_if(n < 1, "Session::threads requires n >= 1 (got %d)", n);
    requestedThreads_ = n;
    return *this;
}

Session &
Session::shareEngine(SimEngine *engine)
{
    panic_if(runner_ != nullptr, "Session::shareEngine must be set "
                                 "before the runner is used");
    panic_if(!engine, "shared engine must not be null");
    sharedEngine_ = engine;
    return *this;
}

Session &
Session::overrideSampleSteps(int n)
{
    panic_if(n < 1,
             "Session::overrideSampleSteps requires n >= 1 (got %d)",
             n);
    requestedSampleSteps_ = n;
    return *this;
}

Session &
Session::progress(double p)
{
    progress_ = p;
    return *this;
}

int
Session::threadCount()
{
    return runner().threads();
}

int
envSampleSteps()
{
    const char *env = std::getenv("FPRAKER_SAMPLE_STEPS");
    if (!env || !*env)
        return 0;
    int v = 0;
    fatal_if(!parsePositiveInt(env, &v),
             "FPRAKER_SAMPLE_STEPS=%s: expected a positive decimal "
             "integer in [1, 1e9]",
             env);
    return v;
}

int
Session::sampleSteps(int fallback)
{
    int v = fallback;
    if (requestedSampleSteps_ > 0)
        v = requestedSampleSteps_;
    else if (int e = envSampleSteps())
        v = e;
    lastSampleSteps_ = v;
    return v;
}

void
Session::setOption(const std::string &key, std::string value)
{
    options_[key] = std::move(value);
}

const std::string *
Session::option(const std::string &key) const
{
    auto it = options_.find(key);
    return it == options_.end() ? nullptr : &it->second;
}

bool
checkOption(const std::string &key, const std::string &value,
            std::string *error)
{
    int n;
    std::vector<int> list;
    if ((key == "batch" || key == "seq") && !parsePositiveInt(value, &n)) {
        *error = key + " must be a decimal integer in [1, 1e9]";
        return false;
    }
    if (key == "batches" && !parsePositiveList(value, &list)) {
        *error = key + " must be a comma-separated list of decimal "
                       "integers in [1, 1e9]";
        return false;
    }
    return true;
}

int
Session::intOption(const std::string &key, int fallback) const
{
    const std::string *v = option(key);
    if (!v)
        return fallback;
    int n = 0;
    fatal_if(!parsePositiveInt(*v, &n),
             "option --%s requires a positive integer (got %s)",
             key.c_str(), v->c_str());
    return n;
}

std::vector<int>
Session::intListOption(const std::string &key,
                       std::vector<int> fallback) const
{
    const std::string *v = option(key);
    if (!v)
        return fallback;
    std::vector<int> list;
    fatal_if(!parsePositiveList(*v, &list),
             "option --%s requires a comma-separated list of positive "
             "integers (got %s)",
             key.c_str(), v->c_str());
    return list;
}

std::string
Session::strOption(const std::string &key,
                   const std::string &fallback) const
{
    const std::string *v = option(key);
    return v ? *v : fallback;
}

namespace {

/**
 * Canonical one-line description of a variant config: every knob that
 * can change simulation results, in a fixed order. Feeds the digest
 * and the JSON provenance.
 */
std::string
describeConfig(const AcceleratorConfig &cfg)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "tile=%dx%d lanes=%d depth=%d maxDelta=%d ob=%d obSkip=%d "
        "enc=%d accFrac=%d accInt=%d chunk=%d expFloor=%d "
        "fprTiles=%d baseTiles=%d bdc=%d convBatch=%d stash=%llu "
        "transient=%llu autoSerial=%d reuse=%d samples=%d seed=%llx",
        cfg.tile.rows, cfg.tile.cols, cfg.tile.pe.lanes,
        cfg.tile.bufferDepth, cfg.tile.pe.maxDelta,
        cfg.tile.pe.obThreshold, cfg.tile.pe.skipOutOfBounds ? 1 : 0,
        static_cast<int>(cfg.tile.pe.encoding), cfg.tile.pe.acc.fracBits,
        cfg.tile.pe.acc.intBits, cfg.tile.pe.acc.chunkSize,
        cfg.tile.pe.exponentFloor, cfg.fprTiles, cfg.baselineTiles,
        cfg.useBdc ? 1 : 0, cfg.convWeightBatch,
        static_cast<unsigned long long>(cfg.actStashBytes),
        static_cast<unsigned long long>(cfg.gbTransientBytes),
        cfg.autoSerialSide ? 1 : 0, cfg.scratchpadReuse, cfg.sampleSteps,
        static_cast<unsigned long long>(cfg.seed));
    return buf;
}

} // namespace

const Accelerator &
Session::withVariant(const std::string &name,
                     const AcceleratorConfig &cfg,
                     const EnergyModelConfig &ecfg)
{
    panic_if(variants_.count(name),
             "variant '%s' registered twice", name.c_str());
    const Accelerator &accel = runner().addAccelerator(cfg, ecfg);
    variantNames_.push_back(name);
    variants_[name] = &accel;
    variantDescs_.push_back(name + ": " + describeConfig(cfg));
    return accel;
}

const Accelerator &
Session::variant(const std::string &name) const
{
    auto it = variants_.find(name);
    panic_if(it == variants_.end(), "unknown variant '%s'",
             name.c_str());
    return *it->second;
}

bool
Session::hasVariant(const std::string &name) const
{
    return variants_.count(name) != 0;
}

SweepRunner &
Session::runner()
{
    if (!runner_)
        runner_ = sharedEngine_
                      ? std::make_unique<SweepRunner>(sharedEngine_)
                      : std::make_unique<SweepRunner>(requestedThreads_);
    return *runner_;
}

std::vector<ModelRunReport>
Session::runModels(const std::vector<SweepJob> &jobs)
{
    return runner().runModels(jobs);
}

std::vector<LayerOpReport>
Session::runLayerOps(const std::vector<SweepLayerJob> &jobs)
{
    return runner().runLayerOps(jobs);
}

void
Session::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    runner().parallelFor(n, fn);
}

std::vector<SweepJob>
Session::zooJobsFor(const std::vector<std::string> &names)
{
    std::vector<const Accelerator *> accels;
    for (const std::string &name : names)
        accels.push_back(&variant(name));
    return zooJobs(accels, progress_);
}

std::string
Session::configDigest() const
{
    Fnv64 h;
    for (const std::string &desc : variantDescs_)
        h.add(desc);
    return h.hex();
}

} // namespace api
} // namespace fpraker
