#include "serve/daemon.h"

#include <array>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <iterator>
#include <system_error>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "serve/fault_injection.h"
#include "serve/protocol.h"

namespace fpraker {
namespace serve {

namespace {

FPRAKER_METRIC_COUNTER(g_connections, "serve.connections",
                       "client connections accepted");
FPRAKER_METRIC_COUNTER(g_protocolErrors, "serve.protocol_errors",
                       "requests rejected before dispatch (bad JSON, "
                       "oversize, or framing failures)");

/** Retry hint for a client refused because no connection thread
 *  could be started; threads free up as other connections close. */
constexpr int kRefusedRetryAfterMs = 100;

/** The protocol's closed op set, plus "other" (last) for every op
 *  string outside it. */
constexpr const char *kKnownOps[] = {
    "ping",  "submit",  "status",   "result",
    "stats", "metrics", "shutdown", "other",
};
constexpr size_t kOpCount = std::size(kKnownOps);

/** Per-op request counter + latency histogram. */
struct OpInstruments
{
    obs::Counter *requests = nullptr;
    obs::Histogram *latency = nullptr;
};

/**
 * The instruments of @p request's op, resolved once per process into
 * a table indexed like kKnownOps. Op names come off the wire, so a
 * missing or unknown op counts as "other": a hostile client cannot
 * grow the registry.
 */
const OpInstruments &
opInstruments(const api::JsonValue &request)
{
    static const std::array<OpInstruments, kOpCount> table = [] {
        std::array<OpInstruments, kOpCount> t;
        obs::Registry &reg = obs::Registry::instance();
        for (size_t i = 0; i < kOpCount; ++i) {
            const std::string op = kKnownOps[i];
            t[i].requests = &reg.counter(
                "serve.requests." + op,
                "requests dispatched for op '" + op + "'");
            t[i].latency = &reg.histogram(
                "serve.request_seconds." + op,
                "request latency for op '" + op + "'",
                obs::Buckets::latency());
        }
        return t;
    }();
    const api::JsonValue *op = request.find("op");
    if (op && op->kind() == api::JsonValue::Kind::String)
        for (size_t i = 0; i + 1 < kOpCount; ++i)
            if (op->str() == kKnownOps[i])
                return table[i];
    return table[kOpCount - 1];
}

} // namespace

Daemon::Daemon(const DaemonConfig &cfg)
    : cfg_(cfg),
      socketPath_(cfg.socketPath.empty() ? defaultSocketPath()
                                         : cfg.socketPath),
      scheduler_(std::make_unique<JobScheduler>(cfg.scheduler))
{
}

Daemon::~Daemon()
{
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        ::unlink(socketPath_.c_str());
    }
}

bool
Daemon::start(std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath_.size() >= sizeof(addr.sun_path)) {
        *error = "socket path too long (max " +
                 std::to_string(sizeof(addr.sun_path) - 1) +
                 " bytes): " + socketPath_;
        return false;
    }
    std::strncpy(addr.sun_path, socketPath_.c_str(),
                 sizeof(addr.sun_path) - 1);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }

    int rc = ::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr));
    if (rc < 0 && errno == EADDRINUSE) {
        // A live daemon answers a connect; a stale file does not —
        // only the latter may be reclaimed.
        int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        bool alive = probe >= 0 &&
                     ::connect(probe,
                               reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr)) == 0;
        if (probe >= 0)
            ::close(probe);
        if (alive) {
            *error = "another daemon is already serving " +
                     socketPath_;
            ::close(fd);
            return false;
        }
        ::unlink(socketPath_.c_str());
        rc = ::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr));
    }
    if (rc < 0) {
        *error = std::string("bind: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }

    if (::listen(fd, 64) < 0) {
        *error = std::string("listen: ") + std::strerror(errno);
        ::close(fd);
        ::unlink(socketPath_.c_str());
        return false;
    }
    listenFd_ = fd;
    startTime_ = monotonicSeconds();
    return true;
}

void
Daemon::requestStop()
{
    stop_.store(true);
    // Poke the accept loop: shutting the listen fd down makes the
    // blocking accept() return with an error.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    // Drain open connections even when clients keep their sockets
    // open: SHUT_RD unblocks readers with EOF while letting the
    // response to an in-flight request (this shutdown's included)
    // still be written.
    std::lock_guard<std::mutex> lock(connMutex_);
    for (int fd : activeFds_)
        ::shutdown(fd, SHUT_RD);
}

bool
Daemon::serve()
{
    bool clean = true;
    while (!stop_.load()) {
        int conn = ::accept(listenFd_, nullptr, nullptr);
        {
            // Reap connection threads that already exited (join is
            // instant) so a long-lived daemon holds O(live) handles.
            std::lock_guard<std::mutex> lock(connMutex_);
            for (std::thread &t : finished_)
                t.join();
            finished_.clear();
        }
        if (conn < 0) {
            // A client that vanished between connect and accept, or
            // transient fd exhaustion, must not take the daemon down.
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE) {
                struct timespec back = {0, 50 * 1000 * 1000};
                ::nanosleep(&back, nullptr);
                continue;
            }
            // Listen fd shut down (requestStop) or truly broken.
            clean = stop_.load();
            break;
        }
        std::string spawnError;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            if (stop_.load()) {
                // Raced with requestStop after its drain pass: refuse.
                ::close(conn);
                continue;
            }
            activeFds_.push_back(conn);
            try {
                if (FaultInjector::instance().fires("daemon.spawn_fail"))
                    throw std::system_error(
                        std::make_error_code(
                            std::errc::resource_unavailable_try_again),
                        "injected daemon.spawn_fail");
                connections_.emplace_back(
                    [this, conn] { handleConnection(conn); });
            } catch (const std::system_error &e) {
                // Out of threads (or memory for one): this client is
                // refused below, and the daemon keeps accepting.
                activeFds_.pop_back();
                spawnError = e.what();
            }
        }
        if (!spawnError.empty())
            refuseConnection(conn, spawnError);
    }
    std::vector<std::thread> pending;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        pending.swap(connections_);
        for (std::thread &t : finished_)
            pending.push_back(std::move(t));
        finished_.clear();
    }
    for (std::thread &t : pending)
        t.join();
    ::close(listenFd_);
    ::unlink(socketPath_.c_str());
    listenFd_ = -1;
    return clean;
}

api::JsonValue
Daemon::completedResponse(uint64_t id, const JobOutcome &outcome)
{
    if (outcome.state == JobState::Failed) {
        api::JsonValue resp = errorResponse(
            outcome.errorCode.empty() ? kErrInternal
                                      : outcome.errorCode.c_str(),
            outcome.error);
        // Keep the job identity on structured failures so a client
        // can correlate the rejection with its submit.
        resp.set("job", static_cast<int64_t>(id));
        resp.set("status", jobStateName(outcome.state));
        if (outcome.retryAfterMs > 0)
            resp.set("retry_after_ms", outcome.retryAfterMs);
        return resp;
    }
    api::JsonValue resp = okResponse();
    resp.set("job", static_cast<int64_t>(id));
    resp.set("status", jobStateName(outcome.state));
    resp.set("cached", outcome.cached);
    resp.set("experiment_ok", outcome.ok);
    resp.set("fingerprint", outcome.fingerprint);
    resp.set("queue_s", api::JsonValue(outcome.queueSeconds, 6));
    resp.set("run_s", api::JsonValue(outcome.runSeconds, 6));
    if (outcome.deadlineOverrunMs > 0)
        resp.set("deadline_overrun_ms", outcome.deadlineOverrunMs);
    resp.set("document", outcome.document);
    return resp;
}

api::JsonValue
Daemon::handleRequest(const api::JsonValue &request)
{
    if (!request.isObject())
        return errorResponse(kErrBadRequest,
                             "request must be a JSON object");
    const api::JsonValue *op = request.find("op");
    if (!op || op->kind() != api::JsonValue::Kind::String)
        return errorResponse(kErrBadRequest,
                             "request needs a string 'op'");

    if (op->str() == "ping") {
        api::JsonValue resp = okResponse();
        resp.set("protocol", kProtocolVersion);
        return resp;
    }

    if (op->str() == "submit") {
        const api::JsonValue *specv = request.find("spec");
        if (!specv)
            return errorResponse(kErrBadRequest,
                                 "submit needs a 'spec' object");
        JobSpec spec;
        std::string error;
        if (!JobSpec::fromJson(*specv, &spec, &error))
            return errorResponse(kErrBadRequest, error);
        bool wait = true;
        if (const api::JsonValue *w = request.find("wait")) {
            if (w->kind() != api::JsonValue::Kind::Bool)
                return errorResponse(kErrBadRequest,
                                     "'wait' must be a boolean");
            wait = w->boolean();
        }
        uint64_t id = scheduler_->submit(spec);
        if (!wait) {
            JobState state;
            scheduler_->status(id, &state);
            api::JsonValue resp = okResponse();
            resp.set("job", static_cast<int64_t>(id));
            resp.set("status", jobStateName(state));
            return resp;
        }
        return completedResponse(id, scheduler_->wait(id));
    }

    if (op->str() == "status" || op->str() == "result") {
        const api::JsonValue *jobv = request.find("job");
        if (!jobv || jobv->kind() != api::JsonValue::Kind::Int)
            return errorResponse(kErrBadRequest,
                                 op->str() +
                                     " needs an integer 'job'");
        uint64_t id = static_cast<uint64_t>(jobv->intValue());
        JobState state;
        if (!scheduler_->status(id, &state))
            return errorResponse(kErrUnknownJob,
                                 "unknown job " + std::to_string(id));
        if (op->str() == "status") {
            api::JsonValue resp = okResponse();
            resp.set("job", static_cast<int64_t>(id));
            resp.set("status", jobStateName(state));
            return resp;
        }
        return completedResponse(id, scheduler_->wait(id));
    }

    if (op->str() == "stats") {
        SchedulerStats s = scheduler_->stats();
        api::JsonValue resp = okResponse();
        resp.set("protocol", kProtocolVersion);
        resp.set("uptime_s",
                 api::JsonValue(monotonicSeconds() - startTime_, 3));
        resp.set("engine_threads", s.engineThreads);
        resp.set("workers", s.workers);
        api::JsonValue jobs = api::JsonValue::object();
        jobs.set("submitted", s.submitted);
        jobs.set("executed", s.executed);
        jobs.set("coalesced", s.coalesced);
        jobs.set("cache_served", s.cacheServed);
        jobs.set("failed", s.failed);
        jobs.set("shed_overload", s.shedOverload);
        jobs.set("shed_deadline", s.shedDeadline);
        jobs.set("deadline_overruns", s.overrun);
        jobs.set("pruned", s.pruned);
        jobs.set("queued", s.queued);
        jobs.set("running", s.running);
        jobs.set("queue_depth", cfg_.scheduler.queueDepth);
        resp.set("jobs", std::move(jobs));
        api::JsonValue cache = api::JsonValue::object();
        cache.set("hits", s.cache.hits);
        cache.set("misses", s.cache.misses);
        cache.set("insertions", s.cache.insertions);
        cache.set("evictions", s.cache.evictions);
        cache.set("disk_hits", s.cache.diskHits);
        cache.set("disk_writes", s.cache.diskWrites);
        cache.set("disk_corrupt", s.cache.diskCorrupt);
        cache.set("bytes", s.cache.bytes);
        cache.set("entries", s.cache.entries);
        cache.set("capacity_bytes", s.cache.capacityBytes);
        resp.set("cache", std::move(cache));
        return resp;
    }

    if (op->str() == "metrics") {
        // The whole obs registry, live. "format": "prom" swaps the
        // structured snapshot for a Prometheus text exposition.
        bool prom = false;
        if (const api::JsonValue *f = request.find("format")) {
            if (f->kind() != api::JsonValue::Kind::String ||
                (f->str() != "json" && f->str() != "prom"))
                return errorResponse(
                    kErrBadRequest,
                    "'format' must be \"json\" or \"prom\"");
            prom = f->str() == "prom";
        }
        api::JsonValue resp = okResponse();
        resp.set("protocol", kProtocolVersion);
        resp.set("uptime_s",
                 api::JsonValue(monotonicSeconds() - startTime_, 3));
        if (prom)
            resp.set("text", obs::Registry::instance().renderProm());
        else
            resp.set("metrics",
                     obs::Registry::instance().snapshotJson());
        return resp;
    }

    if (op->str() == "shutdown") {
        requestStop();
        api::JsonValue resp = okResponse();
        resp.set("stopping", true);
        return resp;
    }

    return errorResponse(kErrUnknownOp,
                         "unknown op '" + op->str() + "'");
}

void
Daemon::refuseConnection(int fd, const std::string &why)
{
    warn("fprakerd: refusing a connection: %s", why.c_str());
    api::JsonValue resp = errorResponse(
        kErrOverloaded, "no connection thread available: " + why);
    resp.set("retry_after_ms", kRefusedRetryAfterMs);
    // One short line into a fresh socket's empty buffer cannot block;
    // the peer may already be gone, so the refusal is best effort.
    std::string error;
    (void)writeMessage(fd, resp, &error);
    ::close(fd);
}

void
Daemon::handleConnection(int fd)
{
    // Socket IO timeouts: a peer that connects and stalls (or stops
    // draining responses) fails its read/write within the bound
    // instead of pinning this thread for the daemon's lifetime.
    std::string error;
    if (!setIoTimeout(fd, cfg_.ioTimeoutSeconds, &error))
        warn("fprakerd: %s", error.c_str());
    // Requests are tiny (one spec object); the default 4 MiB bounds a
    // hostile newline-free stream without cramping any legitimate
    // client.
    LineReader reader(fd, cfg_.maxRequestBytes);
    g_connections.add();
    std::string line;
    for (;;) {
        int64_t delayMs = 0;
        if (FaultInjector::instance().fires("daemon.read_delay_ms",
                                            &delayMs))
            faultSleepMs(delayMs);
        if (!reader.readLine(&line, &error)) {
            // An oversize line deserves an answer (the peer is live
            // and draining); a timeout, torn line, or transport error
            // does not — the stream is already unusable. Either way
            // the connection closes: once framing has failed there is
            // no line boundary left to resynchronize on.
            if (reader.lastFail() == LineReader::Fail::Oversize) {
                g_protocolErrors.add();
                (void)writeMessage(
                    fd, errorResponse(kErrBadRequest, error),
                    &error);
            }
            break;
        }
        api::JsonValue request = api::JsonValue::parse(line, &error);
        api::JsonValue response;
        if (!error.empty()) {
            g_protocolErrors.add();
            response = errorResponse(kErrBadRequest,
                                     "bad request: " + error);
        } else {
            const OpInstruments &oi = opInstruments(request);
            const int64_t t0 = now_ns();
            response = handleRequest(request);
            oi.requests->add();
            oi.latency->observe(
                static_cast<double>(now_ns() - t0) * 1e-9);
        }
        if (FaultInjector::instance().fires("daemon.drop_connection"))
            break; // Vanish without a response, like a crashed peer.
        if (!writeMessage(fd, response, &error))
            break;
    }
    // Close under the connection lock so requestStop never touches a
    // recycled descriptor.
    std::lock_guard<std::mutex> lock(connMutex_);
    for (size_t i = 0; i < activeFds_.size(); ++i) {
        if (activeFds_[i] == fd) {
            activeFds_.erase(activeFds_.begin() +
                             static_cast<long>(i));
            break;
        }
    }
    ::close(fd);
    // Hand this thread's handle to the reap list; the accept loop
    // (or shutdown) joins it. A thread cannot join itself, so the
    // move is the whole trick.
    for (size_t i = 0; i < connections_.size(); ++i) {
        if (connections_[i].get_id() == std::this_thread::get_id()) {
            finished_.push_back(std::move(connections_[i]));
            connections_.erase(connections_.begin() +
                               static_cast<long>(i));
            break;
        }
    }
}

} // namespace serve
} // namespace fpraker
