/**
 * @file
 * Session: the public entry point for running simulations.
 *
 * A Session is one experiment run on the engine its entry point owns:
 * a SweepRunner over that engine, the sample-step knob and options
 * that the legacy bench_common.h helpers used to read ad hoc, and a
 * set of *named* accelerator variants ("full", "zero+bdc", ...).
 * Experiments receive a configured Session from the driver, register
 * the variants they need, and submit jobs; the Session tracks enough
 * provenance (variant configs, digests, resolved knobs) for the
 * Result document.
 */

#ifndef FPRAKER_API_SESSION_H
#define FPRAKER_API_SESSION_H

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sim/sweep_runner.h"

namespace fpraker {
namespace api {

/** Default mid-training progress used by single-point experiments. */
constexpr double kDefaultProgress = 0.5;

/** Accelerator variants of the Fig. 11 contribution breakdown. */
struct AcceleratorVariants
{
    AcceleratorConfig zeroOnly; //!< Zero-term skipping only.
    AcceleratorConfig zeroBdc;  //!< + base-delta compression.
    AcceleratorConfig full;     //!< + out-of-bounds skipping.
};

/** Build the three standard variant configs at @p sample_steps. */
AcceleratorVariants makeVariants(int sample_steps);

/**
 * The standard sweep shape: one job per (accelerator variant, model)
 * over the whole zoo, in zoo order per variant.
 */
std::vector<SweepJob>
zooJobs(const std::vector<const Accelerator *> &variants,
        double progress = kDefaultProgress);

class Session
{
  public:
    /**
     * Run on @p engine, which must outlive the session. Sessions of
     * concurrent experiments may share one engine.
     */
    explicit Session(SimEngine &engine) : runner_(engine) {}
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    // ------------------------------------------------------ knobs
    /**
     * Explicit sample-step budget; overrides both the
     * FPRAKER_SAMPLE_STEPS environment variable and the experiment's
     * fallback in sampleSteps().
     */
    Session &overrideSampleSteps(int n);
    /** Default training-progress point for zooJobs(). */
    Session &progress(double p);

    /** The engine's worker count. */
    int threadCount() const { return runner_.threads(); }

    /**
     * Sampling budget: explicit sampleSteps(n) wins, then the
     * FPRAKER_SAMPLE_STEPS environment variable, then @p fallback.
     * The last resolution is recorded for provenance.
     */
    int sampleSteps(int fallback = 96);
    /** The most recently resolved sample budget (0 = never asked). */
    int lastSampleSteps() const { return lastSampleSteps_; }

    double progress() const { return progress_; }

    // ---------------------------------------------------- options
    /** Free-form experiment options (CLI --batch/--seq/--batches). */
    void setOption(const std::string &key, std::string value);
    /** Option value, or nullptr when unset. */
    const std::string *option(const std::string &key) const;
    /**
     * Integer option with fallback; fatal unless the value passes
     * checkOption, which the CLI and served specs apply before a
     * value reaches a session.
     */
    int intOption(const std::string &key, int fallback) const;
    /** Integer-list option ("8,16,32"), checked as intOption. */
    std::vector<int> intListOption(const std::string &key,
                                   std::vector<int> fallback) const;
    /** String option with fallback. */
    std::string strOption(const std::string &key,
                          const std::string &fallback) const;

    // --------------------------------------------------- variants
    /**
     * Build an accelerator variant named @p name, kept alive for the
     * session's lifetime. Names must be unique; the returned
     * reference is stable.
     */
    const Accelerator &withVariant(const std::string &name,
                                   const AcceleratorConfig &cfg,
                                   const EnergyModelConfig &ecfg = {});
    /** Look up a registered variant (panics when absent). */
    const Accelerator &variant(const std::string &name) const;
    bool hasVariant(const std::string &name) const;
    /** Variant names in registration order. */
    const std::vector<std::string> &variantNames() const
    {
        return variantNames_;
    }

    // -------------------------------------------------- execution
    std::vector<ModelRunReport>
    runModels(const std::vector<SweepJob> &jobs);
    std::vector<LayerOpReport>
    runLayerOps(const std::vector<SweepLayerJob> &jobs);
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /** zooJobs over named variants, at the session default progress. */
    std::vector<SweepJob>
    zooJobsFor(const std::vector<std::string> &names);

    // ------------------------------------------------- provenance
    /**
     * FNV-1a hex digest over the canonical description of every
     * registered variant (geometry, tile counts, sampling, knobs) —
     * two sessions with the same variants share a digest.
     */
    std::string configDigest() const;

  private:
    SweepRunner runner_;
    int requestedSampleSteps_ = 0;
    int lastSampleSteps_ = 0;
    double progress_ = kDefaultProgress;
    std::map<std::string, std::string> options_;

    std::deque<Accelerator> accels_; //!< Stable addresses.
    std::vector<std::string> variantNames_;
    std::map<std::string, const Accelerator *> variants_;
    std::vector<std::string> variantDescs_;
};

/**
 * Check one experiment option before it is set on a session: `batch`
 * and `seq` must pass parsePositiveInt and `batches` parsePositiveList
 * (common/parse.h); any other key is a free-form string. On failure,
 * *error reads "<key> must be ...". The CLI (parseCliArgs) and served
 * specs (serve::JobSpec::fromJson) both check here, so a malformed
 * value is a usage error or a bad_request, never a fatal() in
 * intOption or intListOption.
 */
bool checkOption(const std::string &key, const std::string &value,
                 std::string *error);

/**
 * The FPRAKER_SAMPLE_STEPS override: 0 when the variable is unset or
 * empty, else its value, which must be a positive decimal integer no
 * larger than 1e9 — anything else ("1e3", "abc", "0") is a fatal()
 * naming the variable. Read afresh on every call.
 */
int envSampleSteps();

} // namespace api
} // namespace fpraker

#endif // FPRAKER_API_SESSION_H
