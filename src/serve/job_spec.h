/**
 * @file
 * JobSpec: the serializable unit of work of the serving layer.
 *
 * One JobSpec names a registered experiment plus the Session knobs
 * the CLI would have passed to `fpraker run <id>` — sample-step
 * budget and the workload options (--batch/--seq/--batches). Jobs run
 * on the daemon's shared engine, so a spec carries no thread count.
 * It round-trips through JSON (the `spec` object of the wire
 * protocol, docs/SERVING.md) and defines the content address of its
 * result:
 *
 *     cacheKey = FNV-1a(epoch ‖ result schema ‖ experiment ‖ knobs)
 *
 * (each field length-prefixed, options sorted by key) where `epoch`
 * (kServeCacheEpoch) is bumped whenever simulator arithmetic changes
 * in a way that invalidates old documents, and the knob list covers
 * every input that can change the Result content.
 * The Session's own configDigest is a pure function of these inputs,
 * so two JobSpecs with equal keys produce documents with equal
 * config_digest provenance and equal fingerprints — the property the
 * ResultCache relies on. Priority is scheduling metadata, never part
 * of the key.
 */

#ifndef FPRAKER_SERVE_JOB_SPEC_H
#define FPRAKER_SERVE_JOB_SPEC_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/json.h"

namespace fpraker {
namespace serve {

/**
 * Cache epoch: bump when kernel arithmetic, the document layout, or
 * the spill-file format changes such that previously cached/spilled
 * documents must not be served anymore (the disk spill under
 * --cache-dir outlives daemon restarts and binary upgrades).
 * "fpraker-serve-2": spill files gained a checksum trailer and the
 * cache key folds the resolved FPRAKER_SAMPLE_STEPS env in.
 * "fpraker-serve-3": the key no longer hashes a thread count.
 */
constexpr const char *kServeCacheEpoch = "fpraker-serve-3";

/** One experiment job: registry id + Session knobs. */
struct JobSpec
{
    std::string experiment; //!< Registry id, e.g. "fig11".
    int sampleSteps = 0;    //!< 0 = env/experiment fallback.
    //! Workload options (--batch/--seq/--batches), CLI order.
    std::vector<std::pair<std::string, std::string>> options;
    int priority = 0; //!< Higher runs first; NOT part of the key.
    /**
     * Completion deadline in milliseconds from submit time (0 =
     * none). A job still queued when its deadline expires is shed
     * with a structured `timeout` error; a job that finishes past it
     * reports the overrun in provenance. Scheduling metadata like
     * priority — NOT part of the key.
     */
    int deadlineMs = 0;

    /**
     * The sample-step budget this spec actually simulates with: the
     * explicit field when set, else the daemon's resolved
     * FPRAKER_SAMPLE_STEPS env (0 when neither is set and the
     * experiment's own fallback applies). The cache key hashes THIS
     * value, so two daemons whose environments differ can never
     * alias each other's disk spills.
     */
    int resolvedSampleSteps() const;

    /**
     * Human-readable one-line description of every
     * content-determining field (options sorted by key). For logs
     * and tests; the cache key hashes the same fields structurally
     * (length-prefixed), so values containing the join characters
     * cannot alias.
     */
    std::string canonical() const;

    /** Content address of this spec's result document. */
    uint64_t cacheKey() const;

    /** The wire `spec` object. */
    api::JsonValue toJson() const;

    /**
     * Parse a wire `spec` object. On failure fills @p error and
     * returns false; unknown keys are rejected (strict, like the
     * CLI).
     */
    static bool fromJson(const api::JsonValue &v, JobSpec *out,
                         std::string *error);
};

} // namespace serve
} // namespace fpraker

#endif // FPRAKER_SERVE_JOB_SPEC_H
