/**
 * @file
 * The fprakerd daemon: a Unix-domain socket front-end over one
 * JobScheduler.
 *
 * Lifecycle: construct with a config, start() binds and listens on
 * the socket path (replacing a stale socket file), serve() blocks in
 * the accept loop handing each connection to its own thread, and a
 * client "shutdown" request (or requestStop() from another thread)
 * drains the loop: in-flight connections are joined, the socket file
 * is unlinked, serve() returns.
 *
 * One connection may issue any number of requests; responses are
 * written in request order on that connection. Protocol errors
 * (unparseable line, unknown op) answer {"ok": false, ...} and keep
 * the connection open; only EOF or a transport error closes it.
 */

#ifndef FPRAKER_SERVE_DAEMON_H
#define FPRAKER_SERVE_DAEMON_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.h"

namespace fpraker {
namespace serve {

/** Daemon knobs: socket path + the scheduler underneath. */
struct DaemonConfig
{
    std::string socketPath; //!< "" = defaultSocketPath().
    SchedulerConfig scheduler;
    /**
     * SO_RCVTIMEO/SO_SNDTIMEO on every accepted connection (0 = no
     * timeout). A client that connects and stalls — or stops
     * draining its responses — fails its read/write within this
     * bound and releases the connection thread, so stalled peers can
     * never pin the daemon.
     */
    double ioTimeoutSeconds = 30;
    //! Per-request line bound; a hostile newline-free stream is
    //! refused at this size instead of growing daemon memory.
    size_t maxRequestBytes = 4u << 20;
};

class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &cfg);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind + listen. False (with @p error) when the path is taken
     *  by a live daemon or cannot be bound. */
    bool start(std::string *error);

    /**
     * Accept/serve until shutdown; requires a successful start().
     * Returns true on a clean (requested) stop, false when the
     * accept loop died on an unrecoverable transport error.
     */
    bool serve();

    /** Thread-safe shutdown trigger (what the "shutdown" op calls). */
    void requestStop();

    const std::string &socketPath() const { return socketPath_; }
    JobScheduler &scheduler() { return *scheduler_; }

  private:
    void handleConnection(int fd);
    /** Answer a client whose connection thread could not be started
     *  with one structured overloaded error, then close it. */
    void refuseConnection(int fd, const std::string &why);
    api::JsonValue handleRequest(const api::JsonValue &request);
    api::JsonValue completedResponse(uint64_t id,
                                     const JobOutcome &outcome);

    const DaemonConfig cfg_;
    std::string socketPath_;
    std::unique_ptr<JobScheduler> scheduler_;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    double startTime_ = 0;

    std::mutex connMutex_;
    std::vector<std::thread> connections_;
    //! Exited connection threads awaiting join; the accept loop reaps
    //! them so a long-lived daemon never accumulates zombie handles.
    std::vector<std::thread> finished_;
    //! Open connection fds; requestStop shuts their read side down so
    //! blocked readers drain even when clients keep sockets open.
    std::vector<int> activeFds_;
};

} // namespace serve
} // namespace fpraker

#endif // FPRAKER_SERVE_DAEMON_H
