#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>

#include "api/driver.h"
#include "api/registry.h"
#include "api/result.h"
#include "common/clock.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fault_injection.h"
#include "serve/protocol.h"

namespace fpraker {
namespace serve {

namespace {

FPRAKER_METRIC_COUNTER(g_submitted, "sched.submitted",
                       "scheduler submit() calls");
FPRAKER_METRIC_COUNTER(g_executed, "sched.executed",
                       "jobs actually simulated");
FPRAKER_METRIC_COUNTER(g_coalesced, "sched.coalesced",
                       "submits joined to an in-flight job");
FPRAKER_METRIC_COUNTER(g_cacheServed, "sched.cache_served",
                       "submits completed straight from cache");
FPRAKER_METRIC_COUNTER(g_failed, "sched.failed",
                       "jobs that could not run");
FPRAKER_METRIC_COUNTER(g_shedOverload, "sched.shed_overload",
                       "submits rejected by admission control");
FPRAKER_METRIC_COUNTER(g_shedDeadline, "sched.shed_deadline",
                       "queued jobs shed at deadline");
FPRAKER_METRIC_COUNTER(g_overruns, "sched.deadline_overruns",
                       "ran jobs that finished past deadline");
FPRAKER_METRIC_COUNTER(g_pruned, "sched.pruned",
                       "completed outcomes retired by retention");
FPRAKER_METRIC_GAUGE(g_queueDepth, "sched.queue_depth",
                     "jobs waiting to run");
FPRAKER_METRIC_GAUGE(g_running, "sched.running",
                     "jobs currently executing");
FPRAKER_METRIC_HISTOGRAM(g_queueSeconds, "sched.queue_seconds",
                         "seconds a job waited before running",
                         obs::Buckets::latency());
FPRAKER_METRIC_HISTOGRAM(g_runSeconds, "sched.run_seconds",
                         "seconds a job spent executing",
                         obs::Buckets::latency());

} // namespace

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Done:
        return "done";
      case JobState::Failed:
        return "failed";
    }
    return "?";
}

JobScheduler::JobScheduler(const SchedulerConfig &cfg)
    : cfg_(cfg),
      engine_(std::make_unique<SimEngine>(cfg.engineThreads)),
      cache_(std::make_unique<ResultCache>(cfg.cacheBytes,
                                           cfg.cacheDir))
{
    int workers = cfg.workers > 0 ? cfg.workers : 1;
    counters_.engineThreads = engine_->threads();
    counters_.workers = workers;
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    // The reaper makes deadlines and retention independent of worker
    // availability: a queued job's deadline fires on time even when
    // every worker is stalled inside a long simulation.
    reaper_ = std::thread([this] { reaperLoop(); });
}

JobScheduler::~JobScheduler()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        // Queued jobs will never run; release their waiters.
        const int64_t now = now_ns();
        std::vector<uint64_t> queuedIds;
        for (const auto &[key, id] : queue_) {
            (void)key;
            queuedIds.push_back(id);
        }
        queue_.clear();
        g_queueDepth.set(0);
        for (uint64_t id : queuedIds)
            shedQueuedLocked(id, kErrShuttingDown,
                             "scheduler stopped", now);
    }
    queueCv_.notify_all();
    doneCv_.notify_all();
    reaperCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    reaper_.join();
}

void
JobScheduler::shedQueuedLocked(uint64_t id, const char *code,
                               const std::string &error, int64_t nowNs)
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return;
    Job &job = it->second;
    job.outcome.state = JobState::Failed;
    job.outcome.errorCode = code;
    job.outcome.error = error;
    inflight_.erase(job.key);
    ++counters_.failed;
    g_failed.add();
    obs::TraceCollector &tc = obs::TraceCollector::instance();
    if (tc.enabled())
        tc.instant("sched", "job.shed:" + job.spec.experiment);
    markDoneLocked(id, job, nowNs);
    doneCv_.notify_all();
}

void
JobScheduler::markDoneLocked(uint64_t id, Job &job, int64_t nowNs)
{
    job.doneTimeNs = nowNs;
    doneOrder_.emplace_back(id, nowNs);
    pruneRetentionLocked(nowNs);
}

void
JobScheduler::pruneRetentionLocked(int64_t nowNs)
{
    const int64_t retainNs =
        static_cast<int64_t>(cfg_.retainSeconds * 1e9);
    while (!doneOrder_.empty()) {
        const bool overCount = doneOrder_.size() > cfg_.retainJobs;
        const bool overAge =
            cfg_.retainSeconds > 0 &&
            doneOrder_.front().second + retainNs < nowNs;
        // Hot path (nothing to retire): decided from the deque front
        // alone — no hash lookups on a cache-served submit.
        if (!overCount && !overAge)
            break;
        auto it = jobs_.find(doneOrder_.front().first);
        if (it != jobs_.end()) {
            // An active wait() pins its entry; the deque is
            // completion-ordered, so retry next tick, don't reorder.
            if (it->second.waiters > 0)
                break;
            jobs_.erase(it);
            ++counters_.pruned;
            g_pruned.add();
        }
        doneOrder_.pop_front();
    }
}

int
JobScheduler::retryAfterHintLocked() const
{
    // Estimate queue-drain time from the run-rate the scheduler has
    // actually observed; before any job completes, assume a modest
    // per-job cost. Clamped so the hint is never silly.
    const double perJob =
        ewmaRunSeconds_ > 0 ? ewmaRunSeconds_ : 0.05;
    const int workers = counters_.workers > 0 ? counters_.workers : 1;
    const double waitSeconds =
        perJob * static_cast<double>(queue_.size() + 1) / workers;
    const int ms = static_cast<int>(waitSeconds * 1000.0 + 0.5);
    return std::clamp(ms, 25, 10000);
}

uint64_t
JobScheduler::submit(const JobSpec &spec)
{
    const uint64_t key = spec.cacheKey();
    // Hot path: probe the cache OUTSIDE the scheduler lock — the
    // lookup may copy a large document or touch the spill disk, and
    // serializing that against every other submit/wait/worker-pop
    // would throttle exactly the path the cache exists to speed up.
    // (The cache has its own lock.)
    std::string document;
    std::string fingerprint;
    bool hit = cache_->lookup(key, &document, &fingerprint);

    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.submitted;
    g_submitted.add();
    const int64_t now = now_ns();

    if (hit) {
        uint64_t id = nextId_++;
        Job job;
        job.spec = spec;
        job.key = key;
        job.submitTimeNs = now;
        job.outcome.state = JobState::Done;
        job.outcome.cached = true;
        job.outcome.fingerprint = std::move(fingerprint);
        job.outcome.document = std::move(document);
        auto [jt, inserted] = jobs_.emplace(id, std::move(job));
        ++counters_.cacheServed;
        g_cacheServed.add();
        obs::TraceCollector &tc = obs::TraceCollector::instance();
        if (tc.enabled())
            tc.instant("sched",
                       "job.cache_served:" + spec.experiment);
        markDoneLocked(id, jt->second, now);
        return id;
    }

    // Coalesce with an identical queued/running job: the simulation
    // runs once and every submitter waits on the same id. A
    // higher-priority submit promotes a still-queued job so the
    // (priority desc, seq asc) contract holds for every submitter.
    // (The joined job keeps its own deadline — a coalesced submit
    // rides along, it does not renegotiate.) Costs no queue slot, so
    // it is exempt from admission control, like a cache hit.
    if (auto it = inflight_.find(key); it != inflight_.end()) {
        ++counters_.coalesced;
        g_coalesced.add();
        Job &job = jobs_[it->second];
        if (job.outcome.state == JobState::Queued &&
            spec.priority > job.queuedPriority) {
            queue_.erase({-job.queuedPriority, job.seq});
            job.queuedPriority = spec.priority;
            queue_.emplace(std::make_pair(-job.queuedPriority,
                                          job.seq),
                           it->second);
        }
        return it->second;
    }

    // Admission control: bounded queue, reject-newest. The rejected
    // submit still gets an id whose outcome is already Failed, so
    // every downstream path (wait, status, the wire protocol) treats
    // shedding like any other completion — just a structured one.
    if (queue_.size() >= cfg_.queueDepth) {
        uint64_t id = nextId_++;
        Job job;
        job.spec = spec;
        job.key = key;
        job.submitTimeNs = now;
        job.outcome.state = JobState::Failed;
        job.outcome.errorCode = kErrOverloaded;
        job.outcome.retryAfterMs = retryAfterHintLocked();
        job.outcome.error =
            "queue full (" + std::to_string(queue_.size()) +
            " jobs queued, depth " +
            std::to_string(cfg_.queueDepth) + "); retry in " +
            std::to_string(job.outcome.retryAfterMs) + " ms";
        auto [jt, inserted] = jobs_.emplace(id, std::move(job));
        ++counters_.shedOverload;
        ++counters_.failed;
        g_shedOverload.add();
        g_failed.add();
        obs::TraceCollector &tc = obs::TraceCollector::instance();
        if (tc.enabled())
            tc.instant("sched",
                       "job.shed_overload:" + spec.experiment);
        markDoneLocked(id, jt->second, now);
        return id;
    }

    uint64_t id = nextId_++;
    Job job;
    job.spec = spec;
    job.key = key;
    job.seq = nextSeq_++;
    job.queuedPriority = spec.priority;
    job.submitTimeNs = now;
    if (spec.deadlineMs > 0)
        job.deadlineTimeNs =
            now + static_cast<int64_t>(spec.deadlineMs) * 1000000;
    jobs_.emplace(id, std::move(job));
    inflight_.emplace(key, id);
    // Negated priority: map order is ascending, high priority first.
    queue_.emplace(std::make_pair(-spec.priority, jobs_[id].seq), id);
    g_queueDepth.set(static_cast<int64_t>(queue_.size()));
    queueCv_.notify_one();
    return id;
}

JobOutcome
JobScheduler::run(const JobSpec &spec)
{
    const uint64_t key = spec.cacheKey();
    std::string document;
    std::string fingerprint;
    if (cache_->lookup(key, &document, &fingerprint)) {
        JobOutcome out;
        out.state = JobState::Done;
        out.cached = true;
        out.fingerprint = std::move(fingerprint);
        out.document = std::move(document);
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.submitted;
        ++counters_.cacheServed;
        g_submitted.add();
        g_cacheServed.add();
        return out;
    }
    // Miss (or the entry was evicted between probe and submit —
    // submit re-probes under its own sequencing): full path.
    return wait(submit(spec));
}

JobOutcome
JobScheduler::wait(uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        // Never submitted — or completed and already retired by the
        // retention bound. Either way there is nothing to wait for.
        JobOutcome out;
        out.state = JobState::Failed;
        out.errorCode = kErrUnknownJob;
        out.error = "unknown job " + std::to_string(id);
        return out;
    }
    // Fast path — the submit already completed (every cache hit and
    // every shed submit): hand the outcome over without touching the
    // CV or the waiter pin. The lock is held throughout, so pruning
    // cannot interleave.
    {
        const JobState s = it->second.outcome.state;
        if (s == JobState::Done || s == JobState::Failed)
            return it->second.outcome;
    }
    // Pin the entry: retention pruning skips jobs with waiters, so
    // the outcome cannot be retired between completion and pickup.
    ++it->second.waiters;
    doneCv_.wait(lock, [&] {
        auto jt = jobs_.find(id);
        if (jt == jobs_.end())
            return true; // Defensive; pinned entries are not pruned.
        const JobState s = jt->second.outcome.state;
        return s == JobState::Done || s == JobState::Failed;
    });
    auto jt = jobs_.find(id);
    if (jt == jobs_.end()) {
        JobOutcome out;
        out.state = JobState::Failed;
        out.errorCode = kErrUnknownJob;
        out.error = "job " + std::to_string(id) + " retired";
        return out;
    }
    JobOutcome out = jt->second.outcome;
    --jt->second.waiters;
    return out;
}

bool
JobScheduler::status(uint64_t id, JobState *state) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    *state = it->second.outcome.state;
    return true;
}

void
JobScheduler::workerLoop()
{
    for (;;) {
        uint64_t id = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queueCv_.wait(lock,
                          [&] { return stop_ || !queue_.empty(); });
            if (stop_)
                return;
            auto it = queue_.begin();
            id = it->second;
            queue_.erase(it);
            g_queueDepth.set(static_cast<int64_t>(queue_.size()));
            Job &job = jobs_[id];
            const int64_t now = now_ns();
            // Shed-at-pop: a job whose deadline lapsed while queued
            // must not burn engine time its submitter has given up on.
            if (job.deadlineTimeNs > 0 && now > job.deadlineTimeNs) {
                ++counters_.shedDeadline;
                g_shedDeadline.add();
                const int waitedMs = static_cast<int>(
                    (now - job.submitTimeNs) / 1000000);
                shedQueuedLocked(
                    id, kErrTimeout,
                    "deadline of " +
                        std::to_string(job.spec.deadlineMs) +
                        " ms expired after " +
                        std::to_string(waitedMs) + " ms in queue",
                    now);
                continue;
            }
            job.outcome.state = JobState::Running;
            job.outcome.queueSeconds =
                static_cast<double>(now - job.submitTimeNs) * 1e-9;
            ++counters_.running;
            g_running.add(1);
        }
        execute(id);
    }
}

void
JobScheduler::reaperLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        reaperCv_.wait_for(lock, std::chrono::milliseconds(50),
                           [&] { return stop_; });
        if (stop_)
            return;
        const int64_t now = now_ns();
        // Deadline sweep over the queue — O(queued), bounded by
        // queueDepth. Collect first: shedding mutates jobs_.
        std::vector<std::pair<std::pair<int, uint64_t>, uint64_t>>
            expired;
        for (const auto &[qkey, id] : queue_) {
            auto it = jobs_.find(id);
            if (it != jobs_.end() && it->second.deadlineTimeNs > 0 &&
                now > it->second.deadlineTimeNs)
                expired.emplace_back(qkey, id);
        }
        for (const auto &[qkey, id] : expired) {
            queue_.erase(qkey);
            ++counters_.shedDeadline;
            g_shedDeadline.add();
            auto it = jobs_.find(id);
            const int waitedMs =
                it == jobs_.end()
                    ? 0
                    : static_cast<int>(
                          (now - it->second.submitTimeNs) / 1000000);
            const int deadlineMs =
                it == jobs_.end() ? 0 : it->second.spec.deadlineMs;
            shedQueuedLocked(
                id, kErrTimeout,
                "deadline of " + std::to_string(deadlineMs) +
                    " ms expired after " + std::to_string(waitedMs) +
                    " ms in queue",
                now);
        }
        if (!expired.empty())
            g_queueDepth.set(static_cast<int64_t>(queue_.size()));
        pruneRetentionLocked(now);
    }
}

void
JobScheduler::execute(uint64_t id)
{
    // Copy what the run needs: jobs_ may rehash under concurrent
    // submits, so references don't survive the unlocked region.
    JobSpec spec;
    uint64_t key = 0;
    int64_t deadlineTimeNs = 0;
    int64_t submitTimeNs = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Job &job = jobs_[id];
        spec = job.spec;
        key = job.key;
        deadlineTimeNs = job.deadlineTimeNs;
        submitTimeNs = job.submitTimeNs;
    }

    int64_t stallMs = 0;
    if (FaultInjector::instance().fires("scheduler.worker_stall_ms",
                                        &stallMs))
        faultSleepMs(stallMs);

    JobOutcome out;
    const int64_t t0 = now_ns();
    // Close the submit-side race: a lock-free cache probe that missed
    // may have been overtaken by an identical job completing before
    // this one was enqueued. Re-check before paying for a simulation
    // (contains() first so the common cold path doesn't double-count
    // a miss in the stats).
    std::string cachedDoc;
    std::string cachedFp;
    if (cache_->contains(key) &&
        cache_->lookup(key, &cachedDoc, &cachedFp)) {
        out.state = JobState::Done;
        out.cached = true;
        out.fingerprint = std::move(cachedFp);
        out.document = std::move(cachedDoc);
        out.runSeconds =
            static_cast<double>(now_ns() - t0) * 1e-9;
        obs::TraceCollector &tc = obs::TraceCollector::instance();
        if (tc.enabled())
            tc.instant("sched",
                       "job.cache_served:" + spec.experiment);
        std::lock_guard<std::mutex> lock(mutex_);
        Job &job = jobs_[id];
        out.queueSeconds = job.outcome.queueSeconds;
        job.outcome = std::move(out);
        inflight_.erase(key);
        --counters_.running;
        g_running.add(-1);
        ++counters_.cacheServed;
        g_cacheServed.add();
        markDoneLocked(id, job, now_ns());
        doneCv_.notify_all();
        return;
    }
    const api::ExperimentInfo *info =
        api::ExperimentRegistry::instance().find(spec.experiment);
    if (!info) {
        out.state = JobState::Failed;
        out.errorCode = kErrUnknownExperiment;
        out.error = "unknown experiment '" + spec.experiment + "'";
    } else {
        api::CliOptions opts;
        opts.sampleSteps = spec.sampleSteps;
        opts.extras = spec.options;
        api::Result result =
            api::produceResult(*info, opts, engine_.get());
        out.state = JobState::Done;
        out.ok = result.ok;
        out.document = api::ReportWriter::renderJson(result);
        out.fingerprint = Fnv64::hex(result.fingerprint());
        // A failed-gate result is served to its submitter but never
        // cached: a failure deserves a fresh look, not replay.
        if (result.ok)
            cache_->insert(key, out.document);
        // Deadline overrun: the job started in time, so the result is
        // real and already cached clean — but THIS submitter's copy
        // must say it arrived late. Re-render with the provenance
        // field set; the fingerprint is content-only and unchanged.
        const int64_t tEnd = now_ns();
        if (deadlineTimeNs > 0 && tEnd > deadlineTimeNs) {
            out.deadlineOverrunMs = std::max(
                1, static_cast<int>((tEnd - deadlineTimeNs) /
                                    1000000));
            result.deadlineOverrunMs = out.deadlineOverrunMs;
            out.document = api::ReportWriter::renderJson(result);
        }
    }
    const int64_t tDone = now_ns();
    out.runSeconds = static_cast<double>(tDone - t0) * 1e-9;

    // Lifecycle spans, rendered at completion from the job's own
    // timestamps (all on the one monotonic clock): the queued wait
    // and the run window stack naturally in a trace viewer.
    obs::TraceCollector &tc = obs::TraceCollector::instance();
    if (tc.enabled()) {
        tc.complete("sched", "job.queued:" + spec.experiment,
                    submitTimeNs, t0 - submitTimeNs);
        tc.complete("sched", "job.run:" + spec.experiment, t0,
                    tDone - t0);
    }
    g_runSeconds.observe(out.runSeconds);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        Job &job = jobs_[id];
        out.queueSeconds = job.outcome.queueSeconds;
        job.outcome = std::move(out);
        inflight_.erase(key);
        --counters_.running;
        g_running.add(-1);
        g_queueSeconds.observe(job.outcome.queueSeconds);
        if (job.outcome.state == JobState::Failed) {
            ++counters_.failed;
            g_failed.add();
        } else {
            ++counters_.executed;
            g_executed.add();
            if (job.outcome.deadlineOverrunMs > 0) {
                ++counters_.overrun;
                g_overruns.add();
            }
            // Feed the retry_after estimator with real run costs.
            ewmaRunSeconds_ =
                ewmaRunSeconds_ == 0
                    ? job.outcome.runSeconds
                    : 0.8 * ewmaRunSeconds_ +
                          0.2 * job.outcome.runSeconds;
        }
        markDoneLocked(id, job, now_ns());
    }
    doneCv_.notify_all();
}

SchedulerStats
JobScheduler::stats() const
{
    SchedulerStats s;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s = counters_;
        s.queued = queue_.size();
    }
    s.cache = cache_->stats();
    return s;
}

} // namespace serve
} // namespace fpraker
