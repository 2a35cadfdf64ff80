/**
 * @file
 * Deterministic fault injection for the serving layer.
 *
 * A FaultInjector is a process-global registry of named fault points
 * the serve code consults at the places failures actually happen —
 * the daemon's request loop, the scheduler's workers, the cache's
 * spill writes. A point that is armed fires a bounded number of
 * times (counter-based, never random), so an injected failure
 * sequence is exactly reproducible: the same configuration string
 * yields the same faults in the same order.
 *
 * Configuration is a comma-separated list of `point=param[:count]`
 * entries (`count` defaults to 1):
 *
 *   FPRAKER_FAULTS="spill.torn_write=40:1,scheduler.worker_stall_ms=200:8"
 *   fprakerd --fault=daemon.drop_connection=1:2
 *
 * Registered points (param meaning in parentheses):
 *
 *   daemon.read_delay_ms      sleep before reading a request (ms)
 *   daemon.drop_connection    close the connection instead of
 *                             writing the response (param ignored)
 *   daemon.spawn_fail         fail to start the next connection's
 *                             thread, as std::thread does when the
 *                             process is out of threads; the daemon
 *                             refuses that client (param ignored)
 *   scheduler.worker_stall_ms sleep inside job execution (ms)
 *   spill.torn_write          write only the first <param> bytes of
 *                             a spill document, directly to the
 *                             final path, with no checksum trailer —
 *                             emulating a crash mid-write on a
 *                             pre-atomic-rename layout
 *
 * Everything is thread-safe; tests arm points programmatically and
 * reset() between cases. When no point is armed, fires() is a single
 * relaxed atomic load — the production hot path pays nothing.
 */

#ifndef FPRAKER_SERVE_FAULT_INJECTION_H
#define FPRAKER_SERVE_FAULT_INJECTION_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace fpraker {
namespace serve {

class FaultInjector
{
  public:
    static FaultInjector &instance();

    /**
     * Arm @p point to fire @p count times with @p param. Replaces any
     * existing arming of the same point.
     */
    void arm(const std::string &point, int64_t param,
             uint64_t count = 1);

    /**
     * Parse a `point=param[:count],...` list (the --fault flag and
     * FPRAKER_FAULTS format). On failure fills @p error and returns
     * false without changing state.
     */
    bool configure(const std::string &spec, std::string *error);

    /** Arm from the FPRAKER_FAULTS environment variable (no-op when
     *  unset). Panics on a malformed value — a daemon silently
     *  ignoring its fault schedule would make a red test green. */
    void configureFromEnv();

    /** Disarm every point and zero the fired counters. */
    void reset();

    /**
     * True when @p point is armed with shots remaining; consumes one
     * shot and (when @p param is non-null) reports the armed
     * parameter.
     */
    bool fires(const char *point, int64_t *param = nullptr);

    /** Times @p point has fired since the last reset(). */
    uint64_t fired(const std::string &point) const;

  private:
    FaultInjector() = default;

    struct Arming
    {
        int64_t param = 0;
        uint64_t remaining = 0;
        uint64_t fired = 0;
    };

    //! Fast-path guard: number of points with shots remaining.
    std::atomic<uint64_t> armedPoints_{0};
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Arming> points_;
};

/** Sleep helper for delay-style faults (milliseconds). */
void faultSleepMs(int64_t ms);

} // namespace serve
} // namespace fpraker

#endif // FPRAKER_SERVE_FAULT_INJECTION_H
