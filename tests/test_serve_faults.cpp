/**
 * @file
 * Robustness tests for the serving layer (PR 6): deterministic fault
 * injection, crash-safe spill framing (torn/truncated/bit-flipped
 * files quarantined, never served), per-request deadlines (queued
 * jobs shed with a structured timeout, in-flight overruns reported in
 * provenance while the cached copy stays clean), admission control
 * (reject-newest with retry_after hints) including an open-loop burst
 * at 4x the queue depth, bounded completed-job retention, the
 * env-folded cache key, LineReader failure taxonomy, a client refused
 * when its connection thread cannot start, and the client
 * RetryPolicy's deterministic backoff schedule.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "common/clock.h"
#include "common/fnv.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/fault_injection.h"
#include "serve/job_spec.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/retry.h"
#include "serve/scheduler.h"

namespace fpraker {
namespace {

using api::JsonValue;
using serve::FaultInjector;
using serve::JobOutcome;
using serve::JobScheduler;
using serve::JobSpec;
using serve::JobState;
using serve::LineReader;
using serve::ResultCache;
using serve::RetryPolicy;
using serve::SchedulerConfig;

/** Every test starts and ends with no armed fault points: an armed
 *  leftover would silently poison later cases (the injector is
 *  process-global by design, mirroring a daemon's lifetime). */
class ServeFaults : public ::testing::Test
{
  protected:
    void SetUp() override { FaultInjector::instance().reset(); }
    void TearDown() override { FaultInjector::instance().reset(); }
};

JobSpec
smallSpec(const std::string &experiment, int sampleSteps)
{
    JobSpec spec;
    spec.experiment = experiment;
    spec.sampleSteps = sampleSteps;
    return spec;
}

std::string
tempDir(const char *tag)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("fpraker_") + tag + "_" +
             std::to_string(::getpid())))
        .string();
}

/** A deterministic fake document for pure cache tests. */
std::string
fakeDocument(const std::string &payload)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", "fpraker-result-v1");
    doc.set("payload", payload);
    JsonValue prov = JsonValue::object();
    prov.set("cached", false);
    doc.set("provenance", std::move(prov));
    return doc.dump() + "\n";
}

// --------------------------------------------------- fault injector

TEST_F(ServeFaults, InjectorParsesArmsCountsAndResets)
{
    FaultInjector &fi = FaultInjector::instance();
    std::string error;
    ASSERT_TRUE(
        fi.configure("daemon.read_delay_ms=5:2,spill.torn_write=40",
                     &error))
        << error;

    int64_t param = 0;
    EXPECT_TRUE(fi.fires("daemon.read_delay_ms", &param));
    EXPECT_EQ(param, 5);
    EXPECT_TRUE(fi.fires("daemon.read_delay_ms", &param));
    EXPECT_FALSE(fi.fires("daemon.read_delay_ms", &param)); // spent
    EXPECT_EQ(fi.fired("daemon.read_delay_ms"), 2u);

    EXPECT_TRUE(fi.fires("spill.torn_write", &param)); // count=1
    EXPECT_EQ(param, 40);
    EXPECT_FALSE(fi.fires("spill.torn_write"));

    // Unarmed points never fire.
    EXPECT_FALSE(fi.fires("scheduler.worker_stall_ms"));

    fi.arm("daemon.drop_connection", 1, 3);
    EXPECT_TRUE(fi.fires("daemon.drop_connection"));
    fi.reset();
    EXPECT_FALSE(fi.fires("daemon.drop_connection"));
    EXPECT_EQ(fi.fired("daemon.drop_connection"), 0u);
}

TEST_F(ServeFaults, InjectorRejectsMalformedSpecsWithoutArming)
{
    FaultInjector &fi = FaultInjector::instance();
    std::string error;
    for (const char *bad : {"bogus", "point=", "=1", "a.b=notanumber",
                            "a.b=1:0", "a.b=1:x", "a.b=1:-1",
                            "a.b=1:+2", "a.b=1:2x"}) {
        error.clear();
        EXPECT_FALSE(fi.configure(bad, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    // Nothing got armed along the way.
    EXPECT_FALSE(fi.fires("a.b"));
    EXPECT_FALSE(fi.fires("point"));
}

// ------------------------------------------------ spill crash safety

TEST_F(ServeFaults, SpillTrailerRoundTripsAndRejectsDamage)
{
    const std::string doc = fakeDocument("trailer");
    const std::string trailer = serve::spillTrailer(doc);
    // Fixed-length framing: the verifier can find the trailer from
    // the end of the file alone.
    EXPECT_EQ(trailer, serve::spillTrailer(doc));
    EXPECT_EQ(trailer.back(), '\n');

    std::string raw = doc + trailer;
    std::string back;
    ASSERT_TRUE(serve::verifySpill(raw, &back));
    EXPECT_EQ(back, doc);

    // Truncation anywhere — torn writes — must fail verification.
    for (size_t cut : {size_t(0), size_t(1), doc.size() / 2,
                       doc.size(), raw.size() - 1})
        EXPECT_FALSE(serve::verifySpill(raw.substr(0, cut), &back))
            << "cut=" << cut;

    // A single flipped payload bit must fail the checksum.
    std::string flipped = raw;
    flipped[doc.size() / 2] ^= 0x01;
    EXPECT_FALSE(serve::verifySpill(flipped, &back));

    // A flipped trailer bit must fail too.
    std::string badTrailer = raw;
    badTrailer[raw.size() - 2] ^= 0x01;
    EXPECT_FALSE(serve::verifySpill(badTrailer, &back));

    // Trailing garbage after the trailer is not a valid entry.
    EXPECT_FALSE(serve::verifySpill(raw + "x", &back));
}

TEST_F(ServeFaults, TornSpillWriteIsQuarantinedAndRewritten)
{
    const std::string dir = tempDir("torn_spill");
    std::filesystem::remove_all(dir);
    const std::string doc = fakeDocument("torn");
    const uint64_t key = 7;
    const std::string path = dir + "/" + Fnv64::hex(key) + ".json";

    {
        // The torn_write fault emulates a crash mid-write on the
        // final path: only the first 40 bytes land, no trailer.
        FaultInjector::instance().arm("spill.torn_write", 40);
        ResultCache cache(1 << 20, dir);
        cache.insert(key, doc);
        EXPECT_EQ(FaultInjector::instance().fired("spill.torn_write"),
                  1u);
    }
    ASSERT_TRUE(std::filesystem::exists(path));
    EXPECT_LE(std::filesystem::file_size(path), 40u);

    {
        // A fresh cache (daemon restart) must treat the torn file as
        // a miss and quarantine it — never serve it.
        ResultCache cache(1 << 20, dir);
        std::string raw;
        EXPECT_FALSE(cache.lookupRaw(key, &raw));
        EXPECT_EQ(cache.stats().diskCorrupt, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_FALSE(std::filesystem::exists(path));
        EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));

        // Re-inserting heals the entry (fault is spent)...
        cache.insert(key, doc);
    }
    {
        // ...and the healed spill serves across another restart.
        ResultCache cache(1 << 20, dir);
        std::string raw;
        ASSERT_TRUE(cache.lookupRaw(key, &raw));
        EXPECT_EQ(raw, doc);
        EXPECT_EQ(cache.stats().diskCorrupt, 0u);
    }
    std::filesystem::remove_all(dir);
}

TEST_F(ServeFaults, BitFlippedSpillFileIsNeverServed)
{
    const std::string dir = tempDir("flip_spill");
    std::filesystem::remove_all(dir);
    const std::string doc = fakeDocument("flip");
    const uint64_t key = 11;
    const std::string path = dir + "/" + Fnv64::hex(key) + ".json";

    {
        ResultCache cache(1 << 20, dir);
        cache.insert(key, doc);
    }
    // Corrupt one payload byte on disk (a bad sector, not a crash).
    {
        FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 3, SEEK_SET), 0);
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        ASSERT_EQ(std::fseek(f, 3, SEEK_SET), 0);
        std::fputc(c ^ 0x01, f);
        std::fclose(f);
    }
    {
        ResultCache cache(1 << 20, dir);
        std::string raw;
        EXPECT_FALSE(cache.lookupRaw(key, &raw));
        EXPECT_EQ(cache.stats().diskCorrupt, 1u);
        EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    }
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- deadlines

TEST_F(ServeFaults, QueuedJobPastDeadlineIsShedWithTimeout)
{
    SchedulerConfig cfg;
    cfg.engineThreads = 1;
    cfg.workers = 1;
    JobScheduler sched(cfg);

    // Pin the only worker for 400ms so the second submit stays
    // queued well past its 50ms deadline.
    FaultInjector::instance().arm("scheduler.worker_stall_ms", 400);
    const uint64_t pinId = sched.submit(smallSpec("fig02", 8));
    // Let the worker pop the pin job before the deadlined one lands.
    serve::faultSleepMs(50);

    JobSpec late = smallSpec("fig02", 9);
    late.deadlineMs = 50;
    JobOutcome out = sched.run(late);
    EXPECT_EQ(out.state, JobState::Failed);
    EXPECT_EQ(out.errorCode, serve::kErrTimeout);
    EXPECT_NE(out.error.find("deadline"), std::string::npos);

    JobOutcome pin = sched.wait(pinId);
    EXPECT_EQ(pin.state, JobState::Done) << pin.error;

    serve::SchedulerStats s = sched.stats();
    EXPECT_EQ(s.shedDeadline, 1u);
    EXPECT_EQ(s.executed, 1u); // The shed job never simulated.
    EXPECT_EQ(s.failed, 1u);
}

TEST_F(ServeFaults, InFlightOverrunReportsProvenanceButCachesClean)
{
    SchedulerConfig cfg;
    cfg.engineThreads = 1;
    cfg.workers = 1;
    JobScheduler sched(cfg);

    // The job starts immediately (empty queue) but the injected
    // 500ms stall pushes completion far past the 100ms deadline:
    // started-in-time work is never cancelled, only reported.
    FaultInjector::instance().arm("scheduler.worker_stall_ms", 500);
    JobSpec spec = smallSpec("fig02", 8);
    spec.deadlineMs = 100;
    JobOutcome out = sched.run(spec);
    ASSERT_EQ(out.state, JobState::Done) << out.error;
    EXPECT_GE(out.deadlineOverrunMs, 1);
    EXPECT_NE(out.document.find("\"deadline_overrun_ms\""),
              std::string::npos);
    EXPECT_EQ(sched.stats().overrun, 1u);

    // The cached copy stays clean — byte-stability of served
    // documents is not polluted by one slow request...
    std::string raw;
    ASSERT_TRUE(sched.cache().lookupRaw(spec.cacheKey(), &raw));
    EXPECT_EQ(raw.find("\"deadline_overrun_ms\""), std::string::npos);

    // ...so a hot replay of the same spec has no overrun trace.
    JobOutcome hot = sched.run(spec);
    ASSERT_EQ(hot.state, JobState::Done);
    EXPECT_TRUE(hot.cached);
    EXPECT_EQ(hot.deadlineOverrunMs, 0);
    EXPECT_EQ(hot.document.find("\"deadline_overrun_ms\""),
              std::string::npos);
}

// ---------------------------------------------------- admission control

TEST_F(ServeFaults, OverfullQueueRejectsNewestWithRetryHint)
{
    SchedulerConfig cfg;
    cfg.engineThreads = 1;
    cfg.workers = 1;
    cfg.queueDepth = 1;
    JobScheduler sched(cfg);

    FaultInjector::instance().arm("scheduler.worker_stall_ms", 400);
    const uint64_t running = sched.submit(smallSpec("fig02", 8));
    serve::faultSleepMs(50); // Worker pops it; the queue is empty.
    const uint64_t queued = sched.submit(smallSpec("fig02", 9));
    const uint64_t shed = sched.submit(smallSpec("fig02", 10));

    // The rejected id is immediately Failed — wait() never blocks.
    JobOutcome out = sched.wait(shed);
    EXPECT_EQ(out.state, JobState::Failed);
    EXPECT_EQ(out.errorCode, serve::kErrOverloaded);
    EXPECT_GT(out.retryAfterMs, 0);
    EXPECT_NE(out.error.find("queue full"), std::string::npos);

    // Reject-newest: the accepted jobs still complete normally.
    EXPECT_EQ(sched.wait(running).state, JobState::Done);
    EXPECT_EQ(sched.wait(queued).state, JobState::Done);

    serve::SchedulerStats s = sched.stats();
    EXPECT_EQ(s.shedOverload, 1u);
    EXPECT_EQ(s.executed, 2u);

    // A coalescing resubmit of an in-flight spec needs no queue
    // slot, so admission never sheds it even at depth 0 headroom.
    FaultInjector::instance().reset();
    JobOutcome retry = sched.run(smallSpec("fig02", 10));
    EXPECT_EQ(retry.state, JobState::Done) << retry.error;
}

/** Outcome of one open-loop overload burst (shedBurst). */
struct ShedReport
{
    uint64_t accepted = 0;      //!< Burst submits that entered the queue.
    uint64_t shed = 0;          //!< Burst submits rejected "overloaded".
    uint64_t retryAttempts = 0; //!< Resubmissions until acceptance.
    double submitP99Ms = 0;     //!< Burst submit() call latency.
    bool hintsOk = true;        //!< Every rejection carried retry_after.
    bool drained = true;        //!< Queue and workers idle at the end.
    bool completed = true;      //!< Every spec eventually ran.
    uint64_t digest = 0;        //!< FNV over final fingerprints.
};

/**
 * Submit @p burst distinct cold fig02 specs open-loop against a
 * scheduler whose queue holds @p queueDepth, with one worker, then
 * resubmit every shed spec under the client RetryPolicy until it is
 * accepted. Overload comes from genuinely slow cold jobs, not fault
 * injection.
 */
ShedReport
shedBurst(int burst, uint64_t queueDepth)
{
    SchedulerConfig cfg;
    cfg.engineThreads = 1;
    cfg.workers = 1;
    cfg.queueDepth = queueDepth;
    JobScheduler sched(cfg);

    // Distinct budgets: no coalescing, no cache hits — every accepted
    // submit consumes a real queue slot.
    std::vector<JobSpec> specs;
    for (int i = 0; i < burst; ++i)
        specs.push_back(smallSpec("fig02", 6 + i));

    ShedReport r;
    std::vector<std::string> finalFp(specs.size());
    std::vector<uint64_t> ids(specs.size());
    std::vector<double> submitMs;
    for (size_t i = 0; i < specs.size(); ++i) {
        const double s0 = monotonicSeconds();
        ids[i] = sched.submit(specs[i]);
        submitMs.push_back((monotonicSeconds() - s0) * 1e3);
    }

    // Shed submits are already Failed and return immediately;
    // accepted ones block until the worker drains them.
    std::vector<size_t> pending;
    for (size_t i = 0; i < specs.size(); ++i) {
        JobOutcome out = sched.wait(ids[i]);
        if (out.state == JobState::Done) {
            ++r.accepted;
            finalFp[i] = out.fingerprint;
        } else if (out.errorCode == serve::kErrOverloaded) {
            ++r.shed;
            if (out.retryAfterMs <= 0)
                r.hintsOk = false;
            pending.push_back(i);
        } else {
            r.completed = false; // Unexpected failure kind.
        }
    }

    // Resubmit sequentially, honoring each rejection's hint, so the
    // queue has room and every spec completes.
    RetryPolicy policy;
    for (size_t i : pending) {
        bool done = false;
        for (int attempt = 1; attempt <= 50 && !done; ++attempt) {
            JobOutcome out = sched.run(specs[i]);
            ++r.retryAttempts;
            if (out.state == JobState::Done) {
                finalFp[i] = out.fingerprint;
                done = true;
            } else if (out.errorCode == serve::kErrOverloaded) {
                serve::faultSleepMs(
                    policy.delayMs(attempt, out.retryAfterMs));
            } else {
                break; // Unexpected failure kind.
            }
        }
        if (!done)
            r.completed = false;
    }

    std::sort(submitMs.begin(), submitMs.end());
    r.submitP99Ms = submitMs[static_cast<size_t>(
        0.99 * static_cast<double>(submitMs.size() - 1) + 0.5)];
    serve::SchedulerStats stats = sched.stats();
    r.drained = stats.queued == 0 && stats.running == 0;
    if (r.accepted + r.shed != static_cast<uint64_t>(burst))
        r.completed = false;
    Fnv64 digest;
    for (const std::string &fp : finalFp)
        digest.add(fp);
    r.digest = digest.value();
    return r;
}

TEST_F(ServeFaults, OpenLoopBurstAtFourTimesDepthShedsAndDrains)
{
    // The overload contract, end to end: burst 4x the queue depth
    // open-loop; admission sheds the overflow with hints, memory
    // stays bounded (accounted submits only), and every shed spec
    // completes under the client retry policy.
    const int burst = 16;
    ShedReport r = shedBurst(burst, /*queueDepth=*/4);

    EXPECT_GT(r.shed, 0u);
    EXPECT_GT(r.accepted, 0u);
    EXPECT_EQ(r.accepted + r.shed, static_cast<uint64_t>(burst));
    EXPECT_TRUE(r.hintsOk);  // Every rejection carried retry_after.
    EXPECT_TRUE(r.drained);  // Queue and workers idle at the end.
    EXPECT_TRUE(r.completed); // Every spec eventually ran.
    EXPECT_GT(r.retryAttempts, 0u);
    EXPECT_NE(r.digest, 0u);
    // Admission answers without simulating, so accept latency stays
    // bounded even with the queue full (generous CI margin).
    EXPECT_LT(r.submitP99Ms, 100.0);
}

// -------------------------------------------------- bounded retention

TEST_F(ServeFaults, CompletedOutcomesAreRetiredBeyondRetainBound)
{
    SchedulerConfig cfg;
    cfg.engineThreads = 1;
    cfg.workers = 1;
    cfg.retainJobs = 2;
    JobScheduler sched(cfg);

    uint64_t ids[4];
    for (int i = 0; i < 4; ++i) {
        JobSpec spec = smallSpec("fig02", 8 + i);
        ids[i] = sched.submit(spec);
        EXPECT_EQ(sched.wait(ids[i]).state, JobState::Done);
    }

    // Oldest completions fell off the retention window...
    serve::JobState state;
    EXPECT_FALSE(sched.status(ids[0], &state));
    EXPECT_FALSE(sched.status(ids[1], &state));
    JobOutcome gone = sched.wait(ids[0]);
    EXPECT_EQ(gone.state, JobState::Failed);
    EXPECT_EQ(gone.errorCode, serve::kErrUnknownJob);

    // ...while the newest retainJobs are still answerable.
    EXPECT_TRUE(sched.status(ids[2], &state));
    EXPECT_EQ(state, JobState::Done);
    EXPECT_TRUE(sched.status(ids[3], &state));
    EXPECT_EQ(sched.wait(ids[3]).state, JobState::Done);

    EXPECT_GE(sched.stats().pruned, 2u);
}

// ------------------------------------------------- env-folded cache key

TEST_F(ServeFaults, CacheKeyFoldsResolvedSampleStepsEnv)
{
    const char *saved = std::getenv("FPRAKER_SAMPLE_STEPS");
    const std::string savedValue = saved ? saved : "";

    JobSpec implicit = smallSpec("fig02", 0); // Defers to the env.
    ::setenv("FPRAKER_SAMPLE_STEPS", "33", 1);
    EXPECT_EQ(implicit.resolvedSampleSteps(), 33);
    const uint64_t key33 = implicit.cacheKey();
    ::setenv("FPRAKER_SAMPLE_STEPS", "34", 1);
    const uint64_t key34 = implicit.cacheKey();
    // Two daemons whose environments differ can never alias each
    // other's cache entries or disk spills.
    EXPECT_NE(key33, key34);

    // The env resolves to the same key as the explicit field — they
    // simulate identically, so they may share a document.
    ::unsetenv("FPRAKER_SAMPLE_STEPS");
    EXPECT_EQ(smallSpec("fig02", 33).cacheKey(), key33);
    EXPECT_EQ(smallSpec("fig02", 34).cacheKey(), key34);

    // An explicit budget wins over the env (Session precedence).
    ::setenv("FPRAKER_SAMPLE_STEPS", "99", 1);
    EXPECT_EQ(smallSpec("fig02", 33).cacheKey(), key33);

    if (saved)
        ::setenv("FPRAKER_SAMPLE_STEPS", savedValue.c_str(), 1);
    else
        ::unsetenv("FPRAKER_SAMPLE_STEPS");
}

TEST_F(ServeFaults, DeadlineRoundTripsButNeverKeysTheCache)
{
    JobSpec spec = smallSpec("fig11", 24);
    spec.deadlineMs = 1500;
    JobSpec back;
    std::string error;
    ASSERT_TRUE(JobSpec::fromJson(spec.toJson(), &back, &error))
        << error;
    EXPECT_EQ(back.deadlineMs, 1500);

    // Deadlines are scheduling metadata like priority: the same work
    // under a different deadline must share its cached document.
    JobSpec noDeadline = smallSpec("fig11", 24);
    EXPECT_EQ(spec.cacheKey(), noDeadline.cacheKey());

    JsonValue bad = spec.toJson();
    bad.set("deadline_ms", 0);
    EXPECT_FALSE(JobSpec::fromJson(bad, &back, &error));
}

// ------------------------------------------------ line reader taxonomy

TEST_F(ServeFaults, LineReaderClassifiesEofTimeoutAndOversize)
{
    std::string line, error;

    { // Clean EOF at a line boundary: error stays empty.
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(::write(fds[1], "hello\n", 6), 6);
        ::close(fds[1]);
        LineReader reader(fds[0]);
        ASSERT_TRUE(reader.readLine(&line, &error));
        EXPECT_EQ(line, "hello");
        error.clear();
        EXPECT_FALSE(reader.readLine(&line, &error));
        EXPECT_EQ(reader.lastFail(), LineReader::Fail::Eof);
        EXPECT_TRUE(error.empty());
        ::close(fds[0]);
    }

    { // Peer vanishing mid-line is a distinct, sticky failure.
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(::write(fds[1], "partial", 7), 7);
        ::close(fds[1]);
        LineReader reader(fds[0]);
        error.clear();
        EXPECT_FALSE(reader.readLine(&line, &error));
        EXPECT_EQ(reader.lastFail(), LineReader::Fail::MidLineEof);
        EXPECT_FALSE(error.empty());
        // A failed reader stays failed: a partial line can never be
        // resynchronized into a frame.
        EXPECT_FALSE(reader.readLine(&line, &error));
        EXPECT_EQ(reader.lastFail(), LineReader::Fail::MidLineEof);
        ::close(fds[0]);
    }

    { // Over-long lines are refused even when properly terminated.
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        const std::string big(32, 'x');
        ASSERT_EQ(::write(fds[1], (big + "\n").c_str(), big.size() + 1),
                  static_cast<ssize_t>(big.size() + 1));
        ::close(fds[1]);
        LineReader reader(fds[0], /*maxLineBytes=*/16);
        error.clear();
        EXPECT_FALSE(reader.readLine(&line, &error));
        EXPECT_EQ(reader.lastFail(), LineReader::Fail::Oversize);
        EXPECT_FALSE(error.empty());
        ::close(fds[0]);
    }
}

// ------------------------------------------------------- retry policy

/** A raw client socket connected to @p path, or -1. */
int
dialRaw(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST_F(ServeFaults, FailedConnectionThreadRefusesOneClientAndKeepsServing)
{
    serve::DaemonConfig cfg;
    cfg.socketPath = tempDir("spawn_fail") + ".sock";
    cfg.scheduler.workers = 1;
    serve::Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    FaultInjector::instance().arm("daemon.spawn_fail", 1, 1);
    bool clean = false;
    std::thread server([&] { clean = daemon.serve(); });

    { // The refused client reads one structured overloaded line, then
      // EOF: the daemon closed its fd instead of leaking it.
        const int fd = dialRaw(cfg.socketPath);
        ASSERT_GE(fd, 0);
        LineReader reader(fd);
        std::string line;
        ASSERT_TRUE(reader.readLine(&line, &error)) << error;
        const JsonValue resp = JsonValue::parse(line, &error);
        ASSERT_TRUE(error.empty()) << error;
        EXPECT_FALSE(resp.find("ok")->boolean());
        EXPECT_EQ(resp.find("error_code")->str(), "overloaded");
        int hint = 0;
        EXPECT_TRUE(serve::responseRetryable(resp, &hint));
        EXPECT_GT(hint, 0);
        EXPECT_FALSE(reader.readLine(&line, &error));
        EXPECT_EQ(reader.lastFail(), LineReader::Fail::Eof);
        ::close(fd);
    }
    EXPECT_EQ(FaultInjector::instance().fired("daemon.spawn_fail"), 1u);

    // The next client is served normally.
    serve::ServeClient client;
    ASSERT_TRUE(client.connectTo(cfg.socketPath, &error)) << error;
    JsonValue ping = JsonValue::object();
    ping.set("op", "ping");
    JsonValue resp;
    ASSERT_TRUE(client.request(ping, &resp, &error)) << error;
    EXPECT_TRUE(resp.find("ok")->boolean());

    JsonValue shutdown = JsonValue::object();
    shutdown.set("op", "shutdown");
    ASSERT_TRUE(client.request(shutdown, &resp, &error)) << error;
    EXPECT_TRUE(resp.find("ok")->boolean());
    server.join();
    EXPECT_TRUE(clean);
}

TEST_F(ServeFaults, RetryPolicyIsDeterministicCappedAndFloored)
{
    RetryPolicy a, b;
    // Same seed => the exact same schedule, replayable in tests.
    for (int attempt = 1; attempt <= 6; ++attempt)
        EXPECT_EQ(a.delayMs(attempt, 0), b.delayMs(attempt, 0))
            << attempt;

    // Different seeds de-synchronize the jitter streams.
    RetryPolicy c;
    c.seed = 2;
    bool anyDiffer = false;
    for (int attempt = 1; attempt <= 6; ++attempt)
        anyDiffer |= a.delayMs(attempt, 0) != c.delayMs(attempt, 0);
    EXPECT_TRUE(anyDiffer);

    // Exponential growth from the base, jitter upward-only.
    EXPECT_GE(a.delayMs(1, 0), a.baseDelayMs);
    EXPECT_GE(a.delayMs(2, 0), a.delayMs(1, 0));

    // The curve caps (jitter may exceed the cap by at most its
    // fraction)...
    const int capped = a.delayMs(20, 0);
    EXPECT_LE(capped,
              static_cast<int>(a.maxDelayMs * (1 + a.jitterFrac)) + 1);

    // ...but the server's retry_after hint floors everything, even
    // past the cap: the daemon knows its queue best.
    EXPECT_GE(a.delayMs(1, 500), 500);
    EXPECT_GE(a.delayMs(1, 3 * a.maxDelayMs), 3 * a.maxDelayMs);
}

TEST_F(ServeFaults, OnlyOverloadedResponsesAreRetryable)
{
    int hint = -1;
    JsonValue overloaded = JsonValue::object();
    overloaded.set("ok", false);
    overloaded.set("error_code", "overloaded");
    overloaded.set("retry_after_ms", 75);
    EXPECT_TRUE(serve::responseRetryable(overloaded, &hint));
    EXPECT_EQ(hint, 75);

    // Deterministic failures would fail identically on resubmit.
    for (const char *code :
         {"bad_request", "unknown_experiment", "unknown_job",
          "timeout", "internal"}) {
        JsonValue resp = JsonValue::object();
        resp.set("ok", false);
        resp.set("error_code", code);
        EXPECT_FALSE(serve::responseRetryable(resp, &hint)) << code;
    }

    JsonValue ok = JsonValue::object();
    ok.set("ok", true);
    EXPECT_FALSE(serve::responseRetryable(ok, &hint));
}

} // namespace
} // namespace fpraker
