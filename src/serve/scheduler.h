/**
 * @file
 * JobScheduler: the persistent execution core of the serving layer.
 *
 * One scheduler owns ONE long-lived SimEngine (the warmed worker pool
 * every job shares, as one engine serves every experiment of
 * `fpraker run`), a ResultCache, and a small team of scheduler
 * workers that drain a priority queue of JobSpecs. Per job the worker
 * runs the registered experiment through api::produceResult, whose
 * fresh Session borrows the engine, renders the canonical
 * fpraker-result-v1 document, and admits it to the cache — so
 * served fingerprints are bit-identical to `fpraker run <id>` at any
 * engine thread count or worker count (the existing serial==parallel
 * parity contract, extended to served results).
 *
 * Request coalescing: a submit whose cache key matches a queued or
 * running job joins that job instead of enqueueing a duplicate
 * (concurrent identical submits simulate exactly once); a submit
 * whose key is already cached completes immediately with
 * provenance.cached = true and performs no engine work.
 *
 * Robustness (PR 6):
 *
 *  - ADMISSION CONTROL: the queue is bounded (queueDepth). A submit
 *    that would exceed it — and can neither be cache-served nor
 *    coalesced, both of which cost no queue slot — is rejected
 *    immediately with errorCode "overloaded" and a retryAfterMs hint
 *    derived from an EWMA of recent job run times. Reject-newest:
 *    accepted work is never cancelled for new arrivals.
 *
 *  - DEADLINES: a spec's deadlineMs (relative to submit) becomes an
 *    absolute expiry. A job still queued past it is shed with
 *    errorCode "timeout" — by the worker that pops it, or by the
 *    reaper thread when every worker is busy, so expiry never waits
 *    on a free worker. A job that started in time but finishes late
 *    is NOT cancelled (results are deterministic and already paid
 *    for); its submitter's document reports
 *    provenance.deadline_overrun_ms, while the cached copy stays
 *    clean. Coalesced submits adopt the existing job's deadline.
 *
 *  - BOUNDED RETENTION: completed outcomes are kept for late
 *    status/result polls but retired once older than retainSeconds
 *    or beyond retainJobs entries (oldest-completion first; entries
 *    with an active wait() are never retired). A retired id answers
 *    like an unknown one — the scheduler's memory no longer grows
 *    with lifetime request count.
 *
 * Scheduling order is (priority desc, arrival seq asc); results are
 * buffered per job and handed to waiters, so delivery is deterministic
 * per job regardless of completion interleaving.
 */

#ifndef FPRAKER_SERVE_SCHEDULER_H
#define FPRAKER_SERVE_SCHEDULER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/job_spec.h"
#include "serve/result_cache.h"
#include "sim/sim_engine.h"

namespace fpraker {
namespace serve {

/** Knobs of one scheduler instance. */
struct SchedulerConfig
{
    int engineThreads = 0; //!< SimEngine threads (0 = defaultThreads).
    int workers = 1;       //!< Concurrent jobs.
    uint64_t cacheBytes = 64ull << 20; //!< ResultCache LRU bound.
    std::string cacheDir;              //!< Disk spill ("" = none).
    //! Admission bound: max jobs waiting to run. Submits beyond it
    //! are shed with "overloaded" + a retry_after hint.
    uint64_t queueDepth = 256;
    //! Completed-outcome retention: drop entries beyond this count…
    uint64_t retainJobs = 4096;
    //! …or older than this many seconds since completion.
    double retainSeconds = 900;
};

/** Lifecycle of one submitted job. */
enum class JobState { Queued, Running, Done, Failed };

const char *jobStateName(JobState s);

/** The buffered result of one job, handed to every waiter. */
struct JobOutcome
{
    JobState state = JobState::Queued;
    bool cached = false; //!< Served from the ResultCache.
    bool ok = true;      //!< The experiment's own gate.
    std::string document;    //!< Rendered fpraker-result-v1 text.
    std::string fingerprint; //!< 16-hex content fingerprint.
    std::string error;       //!< Failure reason (Failed only).
    //! Structured code (protocol.h kErr*) when state == Failed.
    std::string errorCode;
    //! "overloaded" rejections: suggested client backoff before
    //! resubmitting (EWMA-based queue-drain estimate).
    int retryAfterMs = 0;
    //! Done jobs that finished past their deadline: by how much.
    int deadlineOverrunMs = 0;
    double queueSeconds = 0; //!< Submit -> execution start.
    double runSeconds = 0;   //!< Execution start -> done.
};

/** Aggregate counters of one scheduler. */
struct SchedulerStats
{
    uint64_t submitted = 0;  //!< submit() calls.
    uint64_t executed = 0;   //!< Jobs actually simulated.
    uint64_t coalesced = 0;  //!< Submits joined to an in-flight job.
    uint64_t cacheServed = 0;//!< Submits completed straight from cache.
    uint64_t failed = 0;     //!< Jobs that could not run.
    uint64_t shedOverload = 0; //!< Submits rejected by admission.
    uint64_t shedDeadline = 0; //!< Queued jobs shed at deadline.
    uint64_t overrun = 0;    //!< Ran jobs that finished past deadline.
    uint64_t pruned = 0;     //!< Completed outcomes retired.
    uint64_t queued = 0;     //!< Currently waiting.
    uint64_t running = 0;    //!< Currently executing.
    CacheStats cache;
    int engineThreads = 0;
    int workers = 0;
};

class JobScheduler
{
  public:
    explicit JobScheduler(const SchedulerConfig &cfg = {});
    /** Stops workers; queued jobs fail with "scheduler stopped". */
    ~JobScheduler();

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /**
     * Enqueue @p spec (or join the identical in-flight job, or
     * complete immediately from cache) and return the job id to
     * wait() on. Under overload the returned id is already Failed
     * with errorCode "overloaded" — wait() returns it immediately.
     */
    uint64_t submit(const JobSpec &spec);

    /** Block until job @p id completes; returns its outcome. */
    JobOutcome wait(uint64_t id);

    /**
     * submit + wait, with a direct path for cache hits: the job id a
     * cache-served submit would mint is created, completed, and
     * retired inside this one call — no caller can ever observe it —
     * so a hit is answered straight from the cache probe, with no
     * job entry and no retention churn. Misses take the full
     * submit/wait path (coalescing, admission, deadlines included).
     */
    JobOutcome run(const JobSpec &spec);

    /** Non-blocking state probe; false when @p id is unknown. */
    bool status(uint64_t id, JobState *state) const;

    SchedulerStats stats() const;
    SimEngine &engine() { return *engine_; }
    ResultCache &cache() { return *cache_; }

  private:
    struct Job
    {
        JobSpec spec;
        uint64_t key = 0;
        uint64_t seq = 0;
        int queuedPriority = 0; //!< Current queue key (coalesced
                                //!< submits may upgrade it).
        // All times in nanoseconds on the one common/clock.h
        // monotonic clock — deadline math, EWMA hints, and obs trace
        // spans must never mix clock sources.
        int64_t submitTimeNs = 0;
        int64_t deadlineTimeNs = 0; //!< Absolute expiry (0 = none).
        int64_t doneTimeNs = 0; //!< Completion time (retention age).
        uint32_t waiters = 0;   //!< Active wait() calls (pins entry).
        JobOutcome outcome;
    };

    void workerLoop();
    void reaperLoop();
    void execute(uint64_t id);
    /** Fail a still-queued job in place and move it into the
     *  retention window (lock held; queue_ entry already removed by
     *  the caller). */
    void shedQueuedLocked(uint64_t id, const char *code,
                          const std::string &error, int64_t nowNs);
    /** Retire completed outcomes past the retention bounds. */
    void pruneRetentionLocked(int64_t nowNs);
    /** Move a completed job into the retention window. */
    void markDoneLocked(uint64_t id, Job &job, int64_t nowNs);
    int retryAfterHintLocked() const;

    const SchedulerConfig cfg_;
    std::unique_ptr<SimEngine> engine_;
    std::unique_ptr<ResultCache> cache_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_; //!< Workers: work or stop.
    std::condition_variable doneCv_;  //!< Waiters: job completion.
    std::condition_variable reaperCv_; //!< Reaper: stop or tick.
    bool stop_ = false;
    uint64_t nextId_ = 1;
    uint64_t nextSeq_ = 0;
    std::unordered_map<uint64_t, Job> jobs_;
    //! (priority desc, seq asc) -> job id; map keeps pop O(log n).
    std::map<std::pair<int, uint64_t>, uint64_t> queue_;
    std::unordered_map<uint64_t, uint64_t> inflight_; //!< key -> id.
    //! (id, doneTimeNs), completion order — the retention window.
    //! The time rides along so the not-pruning fast path (every cache
    //! hit) decides from the deque front alone, no hash lookups.
    std::deque<std::pair<uint64_t, int64_t>> doneOrder_;
    //! EWMA of simulated-job run seconds (retry_after hints).
    double ewmaRunSeconds_ = 0;
    SchedulerStats counters_;

    std::vector<std::thread> workers_;
    std::thread reaper_;
};

} // namespace serve
} // namespace fpraker

#endif // FPRAKER_SERVE_SCHEDULER_H
