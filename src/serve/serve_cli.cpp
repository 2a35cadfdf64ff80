#include "serve/serve_cli.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/driver.h"
#include "api/session.h"
#include "common/parse.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/fault_injection.h"
#include "serve/protocol.h"
#include "serve/retry.h"
#include "sim/sim_memo.h"

namespace fpraker {
namespace serve {

namespace {

/** Signed strict parse for --priority (range [-1e9, 1e9]). */
bool
parseSignedInt(const char *text, int *out)
{
    bool negative = *text == '-';
    uint64_t v;
    if (!parsePositive(negative ? text + 1 : text, kMaxIntArg, &v)) {
        // parsePositive rejects 0; accept the explicit "0" here.
        if (std::strcmp(text, "0") != 0)
            return false;
        v = 0;
    }
    *out = negative ? -static_cast<int>(v) : static_cast<int>(v);
    return true;
}

int
usage(const char *prog, const char *what)
{
    std::fprintf(
        stderr,
        "usage: %s %s\n"
        "(see `fpraker help` and docs/SERVING.md)\n",
        prog, what);
    return 2;
}

int
flagError(const char *prog, const std::string &message)
{
    std::fprintf(stderr, "%s: %s\n", prog, message.c_str());
    return 2;
}

/** True when @p resp carries ok=true; otherwise print the daemon's
 *  error and return false. */
bool
responseOk(const char *prog, const api::JsonValue &resp)
{
    const api::JsonValue *ok = resp.find("ok");
    if (ok && ok->boolean())
        return true;
    const api::JsonValue *msg = resp.find("error");
    std::fprintf(stderr, "%s: daemon error: %s\n", prog,
                 msg ? msg->str().c_str() : "unknown");
    return false;
}

/**
 * One round trip of a query command: connect to @p socket, send
 * @p request, and require ok=true in *@p response. A transport or
 * daemon error is printed, and false returned.
 */
bool
ask(const char *prog, const std::string &socket,
    const api::JsonValue &request, api::JsonValue *response)
{
    ServeClient client;
    std::string error;
    if (!client.connectTo(socket, &error) ||
        !client.request(request, response, &error)) {
        std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
        return false;
    }
    return responseOk(prog, *response);
}

/**
 * Deliver a completed-job response: document to --json (or stdout),
 * one summary line. Shared by `submit` (wait) and `result`. Returns
 * the process exit status.
 */
int
printCompleted(const char *prog, const std::string &label,
               const api::JsonValue &resp, const std::string &jsonPath)
{
    auto field = [&](const char *key) { return resp.find(key); };
    const api::JsonValue *doc = field("document");
    std::string summary =
        "served " + label +
        ": status=" + (field("status") ? field("status")->str() : "?") +
        " cached=" +
        ((field("cached") && field("cached")->boolean()) ? "true"
                                                         : "false") +
        " fingerprint=" +
        (field("fingerprint") ? field("fingerprint")->str() : "?");
    if (!jsonPath.empty()) {
        FILE *f = std::fopen(jsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "%s: cannot write %s\n", prog,
                         jsonPath.c_str());
            return 1;
        }
        if (doc)
            std::fwrite(doc->str().data(), 1, doc->str().size(), f);
        std::fclose(f);
        std::printf("%s\nwrote %s\n", summary.c_str(),
                    jsonPath.c_str());
    } else {
        // Document to stdout (pipeable), summary to stderr.
        if (doc)
            std::fputs(doc->str().c_str(), stdout);
        std::fprintf(stderr, "%s\n", summary.c_str());
    }
    const api::JsonValue *xok = field("experiment_ok");
    return (xok && !xok->boolean()) ? 1 : 0;
}

} // namespace

int
serveMain(int argc, char **argv, int first)
{
    const char *prog = argc > 0 ? argv[0] : "fprakerd";
    DaemonConfig cfg;
    std::string traceOut;
    for (int i = first; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--socket=", 9) == 0) {
            cfg.socketPath = arg + 9;
        } else if (std::strncmp(arg, "--threads=", 10) == 0) {
            if (!parsePositiveInt(arg + 10,
                                  &cfg.scheduler.engineThreads))
                return flagError(prog, "--threads requires an "
                                       "integer >= 1");
        } else if (std::strncmp(arg, "--workers=", 10) == 0) {
            if (!parsePositiveInt(arg + 10, &cfg.scheduler.workers))
                return flagError(prog, "--workers requires an "
                                       "integer >= 1");
        } else if (std::strncmp(arg, "--cache-bytes=", 14) == 0) {
            if (!parsePositive(arg + 14, 1ull << 40,
                               &cfg.scheduler.cacheBytes))
                return flagError(prog, "--cache-bytes requires an "
                                       "integer in [1, 2^40]");
        } else if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
            cfg.scheduler.cacheDir = arg + 12;
        } else if (std::strncmp(arg, "--queue-depth=", 14) == 0) {
            if (!parsePositive(arg + 14, 1000000,
                               &cfg.scheduler.queueDepth))
                return flagError(prog, "--queue-depth requires an "
                                       "integer in [1, 1e6]");
        } else if (std::strncmp(arg, "--io-timeout=", 13) == 0) {
            int seconds;
            if (!parsePositiveInt(arg + 13, &seconds))
                return flagError(prog, "--io-timeout requires an "
                                       "integer >= 1 (seconds)");
            cfg.ioTimeoutSeconds = seconds;
        } else if (std::strncmp(arg, "--fault=", 8) == 0) {
            std::string error;
            if (!FaultInjector::instance().configure(arg + 8,
                                                     &error))
                return flagError(prog, "--fault: " + error);
        } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
            traceOut = arg + 12;
            if (traceOut.empty())
                return flagError(prog, "--trace-out requires a "
                                       "file path");
        } else {
            return usage(prog,
                         "serve [--socket=PATH] [--threads=N] "
                         "[--workers=N] [--cache-bytes=N] "
                         "[--cache-dir=DIR] [--queue-depth=N] "
                         "[--io-timeout=SECONDS] [--fault=SPEC] "
                         "[--trace-out=FILE]");
        }
    }
    if (!traceOut.empty())
        obs::TraceCollector::instance().enable();
    // Test harnesses arm fault schedules through the environment
    // when they cannot reach the flag (panics on a malformed value).
    FaultInjector::instance().configureFromEnv();
    // The knobs jobs read lazily, in a scheduler worker, fail here on
    // a malformed value, before the socket is bound: every job keys
    // and runs on FPRAKER_SAMPLE_STEPS and sizes the memo by
    // FPRAKER_MEMO. FPRAKER_THREADS is read when the daemon builds its
    // engine, also before the bind.
    api::envSampleSteps();
    SimMemo::envBudget();

    Daemon daemon(cfg);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
        return 1;
    }
    SchedulerStats s = daemon.scheduler().stats();
    std::printf("fprakerd: serving on %s (engine threads=%d, "
                "workers=%d, cache=%llu bytes%s%s)\n",
                daemon.socketPath().c_str(), s.engineThreads,
                s.workers,
                static_cast<unsigned long long>(
                    s.cache.capacityBytes),
                cfg.scheduler.cacheDir.empty() ? "" : ", spill=",
                cfg.scheduler.cacheDir.c_str());
    std::fflush(stdout);
    bool clean = daemon.serve();
    // Flush the trace even on an unclean exit — a capture that ends
    // at the failure is exactly the one worth looking at.
    if (!traceOut.empty()) {
        if (obs::TraceCollector::instance().writeTo(traceOut))
            std::printf("fprakerd: wrote %s\n", traceOut.c_str());
        else
            std::fprintf(stderr, "%s: cannot write %s\n", prog,
                         traceOut.c_str());
    }
    if (!clean) {
        std::fprintf(stderr,
                     "%s: accept loop died on a transport error\n",
                     prog);
        return 1;
    }
    std::printf("fprakerd: stopped\n");
    return 0;
}

int
submitMain(int argc, char **argv, int first)
{
    const char *prog = argc > 0 ? argv[0] : "fpraker";
    const char *what =
        "submit <id> [--socket=PATH] "
        "[--sample-steps=N] [--batch=N] [--seq=N] [--batches=LIST] "
        "[--priority=N] [--deadline-ms=N] [--retries=N] "
        "[--json=FILE] [--no-wait]";

    // Serve-specific flags are peeled off here; the shared run knobs
    // (--sample-steps/--batch/--seq/--batches/--json and the
    // experiment id) go through the one strict CLI parser so submit
    // and `fpraker run` can never drift apart.
    std::string socket;
    bool wait = true;
    int priority = 0;
    int deadlineMs = 0;
    // Overloaded submits retry by default — the daemon's
    // retry_after_ms hint plus capped backoff (serve/retry.h).
    int retries = 3;
    std::vector<char *> rest;
    rest.push_back(argc > 0 ? argv[0] : const_cast<char *>("fpraker"));
    for (int i = first; i < argc; ++i) {
        char *arg = argv[i];
        if (std::strncmp(arg, "--socket=", 9) == 0) {
            socket = arg + 9;
        } else if (std::strncmp(arg, "--priority=", 11) == 0) {
            if (!parseSignedInt(arg + 11, &priority))
                return flagError(prog, "--priority requires an "
                                       "integer in [-1e9, 1e9]");
        } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
            if (!parsePositiveInt(arg + 14, &deadlineMs))
                return flagError(prog, "--deadline-ms requires an "
                                       "integer >= 1");
        } else if (std::strncmp(arg, "--retries=", 10) == 0) {
            if (!parseSignedInt(arg + 10, &retries) || retries < 0)
                return flagError(prog, "--retries requires an "
                                       "integer >= 0");
        } else if (std::strcmp(arg, "--no-wait") == 0) {
            wait = false;
        } else {
            rest.push_back(arg);
        }
    }
    api::CliOptions opts;
    std::string parseError;
    if (!api::parseCliArgs(static_cast<int>(rest.size()), rest.data(),
                           1, /*allow_positionals=*/true, &opts,
                           &parseError))
        return flagError(prog, parseError);
    if (opts.all || !opts.jsonDir.empty() || opts.ids.size() != 1)
        return usage(prog, what);
    if (opts.threads > 0)
        return flagError(prog, "--threads is not a job knob: every job "
                               "runs on the daemon's shared engine, "
                               "sized by `fpraker serve --threads=N`");

    JobSpec spec;
    spec.experiment = opts.ids[0];
    spec.sampleSteps = opts.sampleSteps;
    spec.options = opts.extras;
    spec.priority = priority;
    spec.deadlineMs = deadlineMs;
    const std::string jsonPath = opts.json;

    RetryPolicy policy;
    policy.maxAttempts = retries + 1;
    SubmitResult sub = submitWithRetry(socket, spec, policy, wait);
    if (!sub.ok) {
        if (sub.attempts > 1)
            std::fprintf(stderr,
                         "%s: gave up after %d attempts "
                         "(%d ms of backoff)\n",
                         prog, sub.attempts, sub.backoffTotalMs);
        if (sub.response.isObject())
            return responseOk(prog, sub.response) ? 0 : 1;
        std::fprintf(stderr, "%s: %s\n", prog, sub.error.c_str());
        return 1;
    }
    if (sub.attempts > 1)
        std::fprintf(stderr,
                     "%s: succeeded on attempt %d "
                     "(%d ms of backoff)\n",
                     prog, sub.attempts, sub.backoffTotalMs);
    const api::JsonValue &resp = sub.response;

    if (!wait) {
        const api::JsonValue *job = resp.find("job");
        const api::JsonValue *status = resp.find("status");
        std::printf("submitted %s: job=%lld status=%s\n"
                    "(fetch with `%s result %lld`)\n",
                    spec.experiment.c_str(),
                    static_cast<long long>(job ? job->intValue() : 0),
                    status ? status->str().c_str() : "?", prog,
                    static_cast<long long>(job ? job->intValue() : 0));
        return 0;
    }
    return printCompleted(prog, spec.experiment, resp, jsonPath);
}

namespace {

/** Shared argv parse for `status <job>` / `result <job>`. */
bool
parseJobArgs(int argc, char **argv, int first, bool allow_json,
             std::string *socket, std::string *jsonPath,
             uint64_t *job, const char *prog)
{
    bool have_job = false;
    for (int i = first; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--socket=", 9) == 0) {
            *socket = arg + 9;
        } else if (allow_json && std::strncmp(arg, "--json=", 7) == 0) {
            if (!arg[7]) {
                flagError(prog, "--json requires a file path");
                return false;
            }
            *jsonPath = arg + 7;
        } else if (arg[0] != '-' && !have_job) {
            if (!parsePositive(arg, ~0ull >> 1, job)) {
                flagError(prog, std::string("job id must be a "
                                            "positive integer, got "
                                            "'") +
                                    arg + "'");
                return false;
            }
            have_job = true;
        } else {
            return false;
        }
    }
    return have_job;
}

} // namespace

int
statusMain(int argc, char **argv, int first)
{
    const char *prog = argc > 0 ? argv[0] : "fpraker";
    std::string socket, unused;
    uint64_t job = 0;
    if (!parseJobArgs(argc, argv, first, /*allow_json=*/false,
                      &socket, &unused, &job, prog))
        return usage(prog, "status <job> [--socket=PATH]");

    api::JsonValue req = api::JsonValue::object();
    req.set("op", "status");
    req.set("job", static_cast<int64_t>(job));
    api::JsonValue resp;
    if (!ask(prog, socket, req, &resp))
        return 1;
    const api::JsonValue *status = resp.find("status");
    std::printf("job=%llu status=%s\n",
                static_cast<unsigned long long>(job),
                status ? status->str().c_str() : "?");
    return 0;
}

int
resultMain(int argc, char **argv, int first)
{
    const char *prog = argc > 0 ? argv[0] : "fpraker";
    std::string socket, jsonPath;
    uint64_t job = 0;
    if (!parseJobArgs(argc, argv, first, /*allow_json=*/true,
                      &socket, &jsonPath, &job, prog))
        return usage(prog,
                     "result <job> [--socket=PATH] [--json=FILE]");

    api::JsonValue req = api::JsonValue::object();
    req.set("op", "result");
    req.set("job", static_cast<int64_t>(job));
    api::JsonValue resp;
    if (!ask(prog, socket, req, &resp))
        return 1;
    return printCompleted(prog, "job " + std::to_string(job), resp,
                          jsonPath);
}

namespace {

/** "k=v k=v ..." over an object of integer counters. */
std::string
counterLine(const api::JsonValue &obj)
{
    std::string line;
    for (const auto &[key, value] : obj.entries()) {
        if (!line.empty())
            line += " ";
        line += key + "=" +
                std::to_string(static_cast<long long>(
                    value.intValue()));
    }
    return line;
}

} // namespace

int
statsMain(int argc, char **argv, int first)
{
    const char *prog = argc > 0 ? argv[0] : "fpraker";
    std::string socket;
    bool json = false;
    for (int i = first; i < argc; ++i) {
        if (std::strncmp(argv[i], "--socket=", 9) == 0)
            socket = argv[i] + 9;
        else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else
            return usage(prog, "stats [--socket=PATH] [--json]");
    }
    api::JsonValue req = api::JsonValue::object();
    req.set("op", "stats");
    api::JsonValue resp;
    if (!ask(prog, socket, req, &resp))
        return 1;
    // Shape check before rendering: a reply that parses as JSON but
    // lost a section is a daemon bug, not something to print around.
    for (const char *key : {"protocol", "uptime_s", "engine_threads",
                            "workers", "jobs", "cache"}) {
        if (!resp.find(key)) {
            std::fprintf(stderr,
                         "%s: malformed stats reply (missing "
                         "\"%s\")\n",
                         prog, key);
            return 1;
        }
    }
    if (json) {
        // The raw daemon reply, exactly as received.
        std::printf("%s\n", resp.dump().c_str());
        return 0;
    }
    std::printf("daemon: protocol=%s uptime_s=%.3f "
                "engine_threads=%lld workers=%lld\n",
                resp.find("protocol")->str().c_str(),
                resp.find("uptime_s")->number(),
                static_cast<long long>(
                    resp.find("engine_threads")->intValue()),
                static_cast<long long>(
                    resp.find("workers")->intValue()));
    std::printf("jobs:   %s\n",
                counterLine(*resp.find("jobs")).c_str());
    std::printf("cache:  %s\n",
                counterLine(*resp.find("cache")).c_str());
    return 0;
}

int
metricsMain(int argc, char **argv, int first)
{
    const char *prog = argc > 0 ? argv[0] : "fpraker";
    std::string socket;
    bool prom = false;
    for (int i = first; i < argc; ++i) {
        if (std::strncmp(argv[i], "--socket=", 9) == 0)
            socket = argv[i] + 9;
        else if (std::strcmp(argv[i], "--prom") == 0)
            prom = true;
        else
            return usage(prog, "metrics [--socket=PATH] [--prom]");
    }
    api::JsonValue req = api::JsonValue::object();
    req.set("op", "metrics");
    if (prom)
        req.set("format", "prom");
    api::JsonValue resp;
    if (!ask(prog, socket, req, &resp))
        return 1;
    const char *want = prom ? "text" : "metrics";
    const api::JsonValue *payload = resp.find(want);
    if (!payload) {
        std::fprintf(stderr,
                     "%s: malformed metrics reply (missing "
                     "\"%s\")\n",
                     prog, want);
        return 1;
    }
    if (prom)
        std::fputs(payload->str().c_str(), stdout);
    else
        std::printf("%s\n", payload->dump().c_str());
    return 0;
}

int
shutdownMain(int argc, char **argv, int first)
{
    const char *prog = argc > 0 ? argv[0] : "fpraker";
    std::string socket;
    for (int i = first; i < argc; ++i) {
        if (std::strncmp(argv[i], "--socket=", 9) == 0)
            socket = argv[i] + 9;
        else
            return usage(prog, "shutdown [--socket=PATH]");
    }
    api::JsonValue req = api::JsonValue::object();
    req.set("op", "shutdown");
    api::JsonValue resp;
    if (!ask(prog, socket, req, &resp))
        return 1;
    std::printf("daemon stopping\n");
    return 0;
}

} // namespace serve
} // namespace fpraker
