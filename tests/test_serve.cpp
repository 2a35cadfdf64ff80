/**
 * @file
 * Tests for the serving layer (src/serve/): JobSpec round-trip and
 * cache-key stability, ResultCache hit byte-identity / LRU bytes
 * bound / disk spill, JobScheduler dedup of concurrent identical
 * submits, served-vs-direct fingerprint parity across engine thread
 * and worker counts, and a full daemon round-trip over a Unix
 * socket.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "api/driver.h"
#include "api/registry.h"
#include "api/result.h"
#include "common/fnv.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/job_spec.h"
#include "serve/result_cache.h"
#include "serve/scheduler.h"
#include "serve/serve_cli.h"

namespace fpraker {
namespace {

using api::JsonValue;
using serve::CacheStats;
using serve::Daemon;
using serve::DaemonConfig;
using serve::JobOutcome;
using serve::JobScheduler;
using serve::JobSpec;
using serve::JobState;
using serve::ResultCache;
using serve::SchedulerConfig;
using serve::ServeClient;

JobSpec
smallSpec(const std::string &experiment, int sampleSteps)
{
    JobSpec spec;
    spec.experiment = experiment;
    spec.sampleSteps = sampleSteps;
    return spec;
}

/** Render the document `fpraker run <id>` would produce serially. */
std::string
directDocument(const JobSpec &spec)
{
    const api::ExperimentInfo *info =
        api::ExperimentRegistry::instance().find(spec.experiment);
    EXPECT_NE(info, nullptr) << spec.experiment;
    api::CliOptions opts;
    opts.sampleSteps = spec.sampleSteps;
    opts.extras = spec.options;
    return api::ReportWriter::renderJson(
        api::produceResult(*info, opts, nullptr));
}

/** Flip a hot document's provenance.cached back to false — the
 *  inverse of the serve layer's patch; hot bytes must then equal the
 *  cold rendering exactly. */
std::string
withColdFlag(const std::string &hot)
{
    static const char kHot[] = "\"cached\": true";
    std::string out = hot;
    size_t at = out.find(kHot);
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos)
        out.replace(at, sizeof(kHot) - 1, "\"cached\": false");
    return out;
}

/** Parse a document and null out provenance.cached for comparison. */
JsonValue
normalized(const std::string &document)
{
    std::string error;
    JsonValue doc = JsonValue::parse(document, &error);
    EXPECT_TRUE(error.empty()) << error;
    for (auto &entry : doc.entries())
        if (entry.first == "provenance")
            entry.second.set("cached", false);
    return doc;
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

TEST(JobSpec, CanonicalKeyIgnoresOptionOrderButNotValues)
{
    JobSpec a = smallSpec("fig02", 8);
    a.options = {{"steps", "4"}, {"reps", "2"}};
    JobSpec b = smallSpec("fig02", 8);
    b.options = {{"reps", "2"}, {"steps", "4"}};
    EXPECT_EQ(a.cacheKey(), b.cacheKey());

    JobSpec c = a;
    c.options[0].second = "5";
    EXPECT_NE(a.cacheKey(), c.cacheKey());
    JobSpec d = a;
    d.sampleSteps = 9;
    EXPECT_NE(a.cacheKey(), d.cacheKey());
    JobSpec e = a;
    e.experiment = "fig01";
    EXPECT_NE(a.cacheKey(), e.cacheKey());
    // Priority is scheduling metadata, never part of the key.
    JobSpec f = a;
    f.priority = 7;
    EXPECT_EQ(a.cacheKey(), f.cacheKey());
}

TEST(JobSpec, JsonRoundTripAndStrictParse)
{
    JobSpec spec = smallSpec("fig11", 24);
    spec.priority = 2;
    spec.options = {{"steps", "10"}, {"out", "x.json"}};

    JobSpec back;
    std::string error;
    ASSERT_TRUE(JobSpec::fromJson(spec.toJson(), &back, &error))
        << error;
    EXPECT_EQ(back.canonical(), spec.canonical());
    EXPECT_EQ(spec.canonical(),
              "experiment=fig11|sample_steps=24|opt:out=x.json"
              "|opt:steps=10");
    EXPECT_EQ(back.priority, spec.priority);
    EXPECT_EQ(back.cacheKey(), spec.cacheKey());

    JsonValue bad = JsonValue::object();
    EXPECT_FALSE(JobSpec::fromJson(bad, &back, &error));
    bad.set("experiment", "fig11");
    bad.set("bogus", 1);
    EXPECT_FALSE(JobSpec::fromJson(bad, &back, &error));
    JsonValue bad2 = JsonValue::object();
    bad2.set("experiment", "fig11");
    bad2.set("sample_steps", 0);
    EXPECT_FALSE(JobSpec::fromJson(bad2, &back, &error));
    // Jobs run on the daemon's engine: a thread count is no spec key.
    JsonValue bad3 = JsonValue::object();
    bad3.set("experiment", "fig11");
    bad3.set("threads", 4);
    EXPECT_FALSE(JobSpec::fromJson(bad3, &back, &error));
    EXPECT_EQ(error, "unknown spec key 'threads'");

    // The integer workload options follow the CLI's rule (a positive
    // decimal integer up to 1e9; `batches` a comma-separated list of
    // them), so a malformed one is refused here, never fatal() in a
    // worker; other options stay free-form strings.
    const auto withOption = [](const char *key, const char *value) {
        JsonValue v = JsonValue::object();
        v.set("experiment", "ext_workload_catalog");
        JsonValue opts = JsonValue::object();
        opts.set(key, value);
        v.set("options", std::move(opts));
        return v;
    };
    for (const char *key : {"batch", "seq"}) {
        for (const char *value : {"abc", "16x", "0", "-1", "", " 16",
                                  "+16", "1e3", "1000000001"}) {
            EXPECT_FALSE(JobSpec::fromJson(withOption(key, value),
                                           &back, &error))
                << key << "=" << value;
            EXPECT_EQ(error, std::string("spec.options.") + key +
                                 " must be a decimal integer in "
                                 "[1, 1e9]");
        }
        ASSERT_TRUE(JobSpec::fromJson(withOption(key, "16"), &back,
                                      &error))
            << error;
    }
    for (const char *value :
         {"", ",", "8,", ",8", "8,,16", "8,abc", "8, 16", "8,0"}) {
        EXPECT_FALSE(JobSpec::fromJson(withOption("batches", value),
                                       &back, &error))
            << value;
        EXPECT_NE(error.find("spec.options.batches"), std::string::npos);
    }
    ASSERT_TRUE(JobSpec::fromJson(withOption("batches", "8,16,32"),
                                  &back, &error))
        << error;
    ASSERT_TRUE(JobSpec::fromJson(withOption("out", "16x"), &back,
                                  &error))
        << error;
}

TEST(JobSpec, SubmitRejectsThreadsFlag)
{
    // Rejected before any connection: jobs share the daemon's engine.
    const char *argv[] = {"fpraker", "submit", "fig13", "--threads=2",
                          "--socket=/nonexistent/fpraker.sock"};
    EXPECT_EQ(serve::submitMain(5, const_cast<char **>(argv), 2), 2);
}

TEST(ServeCli, MalformedKnobFailsBeforeBind)
{
#if GTEST_HAS_DEATH_TEST
    // Every knob a job reads is checked before the socket is bound, so
    // a malformed one never surfaces as EOF on a first submit. The
    // socket directory does not exist: a daemon that got past the
    // checks would fail its bind with another message, never serve.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"fprakerd", "serve",
                          "--socket=/nonexistent/fpraker.sock"};
    const std::pair<const char *, const char *> knobs[] = {
        {"FPRAKER_SAMPLE_STEPS", "abc"},
        {"FPRAKER_MEMO", "-1"},
        {"FPRAKER_SIMD", "avx2"},
        {"FPRAKER_THREADS", "4x"}};
    for (const auto &[name, value] : knobs) {
        const char *saved = std::getenv(name);
        const std::string savedValue = saved ? saved : "";
        ::setenv(name, value, 1);
        EXPECT_EXIT(serve::serveMain(3, const_cast<char **>(argv), 2),
                    ::testing::ExitedWithCode(1), name)
            << name << "=" << value;
        if (saved)
            ::setenv(name, savedValue.c_str(), 1);
        else
            ::unsetenv(name);
    }
#else
    GTEST_SKIP() << "death tests unavailable";
#endif
}

TEST(ResultCache, HitIsByteIdenticalAndMarkedCached)
{
    ResultCache cache(1 << 20);
    const std::string doc = fakeDocument("abc");
    cache.insert(1, doc);

    std::string raw;
    ASSERT_TRUE(cache.lookupRaw(1, &raw));
    EXPECT_EQ(raw, doc); // byte-identical to the cold rendering

    std::string hot;
    ASSERT_TRUE(cache.lookup(1, &hot));
    EXPECT_NE(hot, doc); // differs exactly in provenance.cached
    EXPECT_NE(hot.find("\"cached\": true"), std::string::npos);
    EXPECT_EQ(withColdFlag(hot), doc); // ... and in nothing else
    EXPECT_EQ(normalized(hot), normalized(doc));

    std::string miss;
    EXPECT_FALSE(cache.lookup(2, &miss));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
}

TEST(ResultCache, MemoizedFingerprintMatchesDocumentText)
{
    ResultCache cache(1 << 20);
    // A realistic header slice: fingerprint before any content, the
    // shape serve::extractFingerprint is documented against.
    std::string doc = fakeDocument("fp-test");
    const size_t at = doc.find("\"payload\"");
    ASSERT_NE(at, std::string::npos);
    doc.insert(at, "\"fingerprint\": \"00c0ffee00c0ffee\", ");
    ASSERT_EQ(serve::extractFingerprint(doc), "00c0ffee00c0ffee");
    cache.insert(7, doc);

    // The memoized value rides along with every hit, and the
    // document text itself is unperturbed by the memo.
    std::string hot, fp;
    ASSERT_TRUE(cache.lookup(7, &hot, &fp));
    EXPECT_EQ(fp, "00c0ffee00c0ffee");
    EXPECT_EQ(fp, serve::extractFingerprint(hot));
    EXPECT_EQ(withColdFlag(hot), doc);

    // A document with no fingerprint key memoizes "".
    cache.insert(8, fakeDocument("no-fp"));
    ASSERT_TRUE(cache.lookup(8, &hot, &fp));
    EXPECT_EQ(fp, "");

    std::string miss;
    EXPECT_FALSE(cache.lookup(9, &miss, &fp));
}

TEST(ResultCache, MemoizedFingerprintSurvivesSpillRescue)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fpraker_spill_fp_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    std::string doc = fakeDocument("fp-spill");
    const size_t at = doc.find("\"payload\"");
    ASSERT_NE(at, std::string::npos);
    doc.insert(at, "\"fingerprint\": \"feedfacefeedface\", ");
    {
        ResultCache cache(doc.size() + 1, dir);
        cache.insert(1, doc);
        cache.insert(2, doc); // evicts 1 from memory
        EXPECT_FALSE(cache.contains(1));

        // The rescue path re-extracts at re-admission.
        std::string hot, fp;
        ASSERT_TRUE(cache.lookup(1, &hot, &fp));
        EXPECT_EQ(fp, "feedfacefeedface");
        EXPECT_EQ(cache.stats().diskHits, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(ResultCache, EvictionRespectsBytesBound)
{
    const std::string doc = fakeDocument("0123456789");
    // Room for two resident documents, not three.
    ResultCache cache(doc.size() * 2 + doc.size() / 2);
    cache.insert(1, doc);
    cache.insert(2, doc);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));

    // Touch 1 so 2 is the LRU victim when 3 arrives.
    std::string text;
    ASSERT_TRUE(cache.lookupRaw(1, &text));
    cache.insert(3, doc);

    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_LE(s.bytes, s.capacityBytes);
}

TEST(ResultCache, DiskSpillSurvivesEviction)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fpraker_spill_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);

    const std::string doc = fakeDocument("spilled");
    {
        ResultCache cache(doc.size() + 1, dir);
        cache.insert(1, doc);
        cache.insert(2, doc); // evicts 1 from memory
        EXPECT_FALSE(cache.contains(1));

        std::string raw;
        ASSERT_TRUE(cache.lookupRaw(1, &raw)); // rescued from disk
        EXPECT_EQ(raw, doc);
        EXPECT_EQ(cache.stats().diskHits, 1u);
    }
    {
        // A fresh cache (daemon restart) warms from the same spill.
        ResultCache cache(1 << 20, dir);
        std::string raw;
        ASSERT_TRUE(cache.lookupRaw(2, &raw));
        EXPECT_EQ(raw, doc);
    }
    std::filesystem::remove_all(dir);
}

TEST(JobScheduler, CacheHitMatchesColdRunAndSkipsEngine)
{
    SchedulerConfig cfg;
    cfg.engineThreads = 1;
    cfg.workers = 2;
    JobScheduler sched(cfg);
    JobSpec spec = smallSpec("fig02", 8);

    JobOutcome cold = sched.run(spec);
    ASSERT_EQ(cold.state, JobState::Done);
    EXPECT_FALSE(cold.cached);
    // The scheduler's cold document is byte-identical to what
    // `fpraker run fig02` renders serially.
    EXPECT_EQ(cold.document, directDocument(spec));

    JobOutcome hot = sched.run(spec);
    ASSERT_EQ(hot.state, JobState::Done);
    EXPECT_TRUE(hot.cached);
    EXPECT_EQ(hot.fingerprint, cold.fingerprint);
    EXPECT_NE(hot.document, cold.document);
    // The ONLY byte difference is the provenance.cached flag.
    EXPECT_EQ(withColdFlag(hot.document), cold.document);
    EXPECT_NE(hot.document.find("\"cached\": true"),
              std::string::npos);

    serve::SchedulerStats s = sched.stats();
    EXPECT_EQ(s.executed, 1u); // the hot request did no engine work
    EXPECT_EQ(s.cacheServed, 1u);
}

TEST(JobScheduler, ConcurrentIdenticalSubmitsSimulateOnce)
{
    SchedulerConfig cfg;
    cfg.engineThreads = 1;
    cfg.workers = 4;
    JobScheduler sched(cfg);
    JobSpec spec = smallSpec("fig02", 10);

    constexpr int kClients = 8;
    std::vector<JobOutcome> outcomes(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back(
            [&, i] { outcomes[i] = sched.run(spec); });
    for (std::thread &t : clients)
        t.join();

    for (const JobOutcome &out : outcomes) {
        ASSERT_EQ(out.state, JobState::Done);
        EXPECT_EQ(out.fingerprint, outcomes[0].fingerprint);
    }
    // Every client got a document, but the simulation ran exactly
    // once: the rest coalesced onto the in-flight job or hit the
    // cache.
    EXPECT_EQ(sched.stats().executed, 1u);
}

TEST(JobScheduler, FingerprintsMatchDirectRunAcrossWidths)
{
    const JobSpec specs[] = {smallSpec("fig01", 12),
                             smallSpec("fig02", 12)};
    std::string want[2];
    for (int i = 0; i < 2; ++i) {
        std::string doc = directDocument(specs[i]);
        want[i] = normalized(doc).find("fingerprint")->str();
    }

    for (int width : {1, 2, 8}) {
        SchedulerConfig cfg;
        cfg.engineThreads = width;
        cfg.workers = width;
        JobScheduler sched(cfg);
        for (int i = 0; i < 2; ++i) {
            JobOutcome out = sched.run(specs[i]);
            ASSERT_EQ(out.state, JobState::Done) << out.error;
            EXPECT_EQ(out.fingerprint, want[i])
                << specs[i].experiment << " @ " << width;
        }
    }
}

TEST(JobScheduler, UnknownExperimentFailsWithoutCrashing)
{
    JobScheduler sched;
    JobOutcome out = sched.run(smallSpec("nope", 8));
    EXPECT_EQ(out.state, JobState::Failed);
    EXPECT_NE(out.error.find("unknown experiment"),
              std::string::npos);
    EXPECT_EQ(sched.stats().failed, 1u);
}

TEST(Daemon, SocketRoundTripServesAndCaches)
{
    DaemonConfig cfg;
    cfg.socketPath =
        (std::filesystem::temp_directory_path() /
         ("fpraker_test_" + std::to_string(::getpid()) + ".sock"))
            .string();
    // engineThreads=1 keeps the daemon's documents byte-identical to
    // a serial `fpraker run` (provenance.threads included); parity at
    // wider engines is fingerprint-level (checked above).
    cfg.scheduler.engineThreads = 1;
    cfg.scheduler.workers = 2;
    Daemon daemon(cfg);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    bool clean = false;
    std::thread server([&] { clean = daemon.serve(); });

    ServeClient client;
    ASSERT_TRUE(client.connectTo(cfg.socketPath, &error)) << error;

    JsonValue ping = JsonValue::object();
    ping.set("op", "ping");
    JsonValue resp;
    ASSERT_TRUE(client.request(ping, &resp, &error)) << error;
    EXPECT_TRUE(resp.find("ok")->boolean());

    JobSpec spec = smallSpec("fig02", 8);
    ASSERT_TRUE(client.submit(spec, &resp, &error)) << error;
    ASSERT_TRUE(resp.find("ok")->boolean());
    EXPECT_FALSE(resp.find("cached")->boolean());
    const std::string fingerprint = resp.find("fingerprint")->str();
    const std::string coldDoc = resp.find("document")->str();
    EXPECT_EQ(coldDoc, directDocument(spec));

    // Second submit of the same spec: served from cache.
    ASSERT_TRUE(client.submit(spec, &resp, &error)) << error;
    ASSERT_TRUE(resp.find("ok")->boolean());
    EXPECT_TRUE(resp.find("cached")->boolean());
    EXPECT_EQ(resp.find("fingerprint")->str(), fingerprint);
    EXPECT_EQ(normalized(resp.find("document")->str()),
              normalized(coldDoc));

    // Async path: submit without waiting, then fetch via result.
    ASSERT_TRUE(client.submit(smallSpec("fig02", 9), &resp, &error,
                              /*wait=*/false))
        << error;
    ASSERT_TRUE(resp.find("ok")->boolean());
    const int64_t asyncJob = resp.find("job")->intValue();
    JsonValue fetch = JsonValue::object();
    fetch.set("op", "result");
    fetch.set("job", asyncJob);
    ASSERT_TRUE(client.request(fetch, &resp, &error)) << error;
    ASSERT_TRUE(resp.find("ok")->boolean());
    EXPECT_EQ(resp.find("status")->str(), "done");
    EXPECT_FALSE(resp.find("document")->str().empty());

    // Malformed and unknown requests answer ok=false and keep the
    // connection usable.
    JsonValue badOp = JsonValue::object();
    badOp.set("op", "frobnicate");
    ASSERT_TRUE(client.request(badOp, &resp, &error)) << error;
    EXPECT_FALSE(resp.find("ok")->boolean());
    // So does a malformed served option, which never reaches a worker.
    JobSpec badBatch = smallSpec("ext_workload_catalog", 8);
    badBatch.options = {{"batch", "abc"}};
    ASSERT_TRUE(client.submit(badBatch, &resp, &error)) << error;
    EXPECT_FALSE(resp.find("ok")->boolean());
    EXPECT_EQ(resp.find("error_code")->str(), "bad_request");
    ASSERT_TRUE(client.request(ping, &resp, &error)) << error;
    EXPECT_TRUE(resp.find("ok")->boolean());

    JsonValue stats = JsonValue::object();
    stats.set("op", "stats");
    ASSERT_TRUE(client.request(stats, &resp, &error)) << error;
    ASSERT_TRUE(resp.find("ok")->boolean());
    // Two simulations (fig02@8 cold, fig02@9 async) for three
    // submits; the repeat was cache-served.
    EXPECT_EQ(resp.find("jobs")->find("executed")->intValue(), 2);
    EXPECT_EQ(resp.find("jobs")->find("cache_served")->intValue(), 1);
    EXPECT_GE(resp.find("cache")->find("hits")->intValue(), 1);

    // Metrics op: the full obs-registry snapshot as JSON...
    JsonValue metrics = JsonValue::object();
    metrics.set("op", "metrics");
    ASSERT_TRUE(client.request(metrics, &resp, &error)) << error;
    ASSERT_TRUE(resp.find("ok")->boolean());
    const JsonValue *snap = resp.find("metrics");
    ASSERT_TRUE(snap && snap->isObject());
    ASSERT_TRUE(snap->find("counters"));
    ASSERT_TRUE(snap->find("gauges"));
    ASSERT_TRUE(snap->find("histograms"));
    // The scheduler seam counted this connection's submits.
    const JsonValue *submitted =
        snap->find("counters")->find("sched.submitted");
    ASSERT_TRUE(submitted);
    EXPECT_GE(submitted->intValue(), 3);
    // ...and Prometheus text on request.
    metrics.set("format", "prom");
    ASSERT_TRUE(client.request(metrics, &resp, &error)) << error;
    ASSERT_TRUE(resp.find("ok")->boolean());
    const JsonValue *prom = resp.find("text");
    ASSERT_TRUE(prom);
    EXPECT_NE(prom->str().find("# TYPE fpraker_sched_submitted "
                               "counter"),
              std::string::npos);
    // An unknown format is a protocol error, not a silent default.
    metrics.set("format", "xml");
    ASSERT_TRUE(client.request(metrics, &resp, &error)) << error;
    EXPECT_FALSE(resp.find("ok")->boolean());

    JsonValue shutdown = JsonValue::object();
    shutdown.set("op", "shutdown");
    ASSERT_TRUE(client.request(shutdown, &resp, &error)) << error;
    EXPECT_TRUE(resp.find("ok")->boolean());
    server.join();
    EXPECT_TRUE(clean);
    EXPECT_FALSE(std::filesystem::exists(cfg.socketPath));
}

TEST(JobScheduler, ServedWorkloadMatchesDirectRunAndKeysOnKnobs)
{
    // A workload experiment served through the scheduler must produce
    // the exact document a direct run produces, and the cache key
    // must fold the workload geometry knobs: same knobs hit, changed
    // knobs simulate again.
    JobSpec spec = smallSpec("ext_workload_catalog", 6);
    spec.options = {{"batch", "2"}, {"seq", "16"}};

    SchedulerConfig cfg;
    cfg.engineThreads = 1; // document byte-parity needs a serial engine
    cfg.workers = 1;
    JobScheduler sched(cfg);

    JobOutcome cold = sched.run(spec);
    ASSERT_EQ(cold.state, JobState::Done) << cold.error;
    EXPECT_EQ(cold.document, directDocument(spec));

    JobOutcome hot = sched.run(spec);
    ASSERT_EQ(hot.state, JobState::Done) << hot.error;
    EXPECT_EQ(hot.fingerprint, cold.fingerprint);
    EXPECT_EQ(sched.stats().executed, 1u);
    EXPECT_EQ(sched.stats().cacheServed, 1u);

    // Same experiment, different batch geometry: a different job.
    JobSpec wider = spec;
    wider.options = {{"batch", "4"}, {"seq", "16"}};
    EXPECT_NE(wider.cacheKey(), spec.cacheKey());
    JobOutcome other = sched.run(wider);
    ASSERT_EQ(other.state, JobState::Done) << other.error;
    EXPECT_EQ(sched.stats().executed, 2u);
    EXPECT_NE(other.fingerprint, cold.fingerprint);
}

} // namespace
} // namespace fpraker
