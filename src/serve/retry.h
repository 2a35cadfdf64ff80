/**
 * @file
 * RetryPolicy: the client-side half of the serving layer's overload
 * contract.
 *
 * The daemon sheds excess submits with {"ok": false, "error_code":
 * "overloaded", "retry_after_ms": N}. A well-behaved client backs off
 * and resubmits; this header is that behavior, shared by `fpraker
 * submit` and the overload tests so every client in the tree reacts
 * to pressure the same way:
 *
 *  - capped exponential backoff (baseDelayMs * multiplier^attempt,
 *    capped at maxDelayMs) with multiplicative jitter;
 *  - the server's retry_after_ms hint is a FLOOR on the delay — the
 *    daemon knows its queue better than any client-side curve;
 *  - jitter is deterministic (seeded xoshiro, one stream per policy
 *    seed), so tests and benchmarks replay identical schedules. Two
 *    clients de-synchronize by using different seeds, not by
 *    entropy.
 *
 * Retryable failures: "overloaded" responses and transport errors
 * (daemon restarting, connection dropped mid-request). Structured
 * request errors (bad_request, unknown_experiment, timeout, ...) are
 * NOT retried — the same request would fail the same way.
 */

#ifndef FPRAKER_SERVE_RETRY_H
#define FPRAKER_SERVE_RETRY_H

#include <cstdint>
#include <string>

#include "api/json.h"
#include "serve/job_spec.h"

namespace fpraker {
namespace serve {

/** Backoff schedule knobs. */
struct RetryPolicy
{
    int maxAttempts = 5;  //!< Total tries (1 = no retries).
    int baseDelayMs = 50; //!< First-retry backoff.
    int maxDelayMs = 2000; //!< Backoff curve cap (hints may exceed).
    double multiplier = 2.0;
    //! Multiplicative jitter: the delay is scaled by a deterministic
    //! uniform draw from [1, 1 + jitterFrac]. Upward-only, so the
    //! server's retry_after_ms floor is always honored.
    double jitterFrac = 0.25;
    uint64_t seed = 1; //!< Jitter stream; vary per client.

    /**
     * Backoff before retry number @p attempt (1-based: the delay
     * after the attempt'th failure). @p retryAfterMs is the server's
     * hint (0 = none) and floors the result.
     */
    int delayMs(int attempt, int retryAfterMs) const;
};

/** What one submitWithRetry() call did, success or not. */
struct SubmitResult
{
    bool ok = false;           //!< Got a {"ok": true} response.
    api::JsonValue response;   //!< Last parsed response (may be err).
    std::string error;         //!< Transport/final failure text.
    std::string errorCode;     //!< Last structured code ("" = none).
    int attempts = 0;          //!< Round-trips performed.
    int backoffTotalMs = 0;    //!< Time spent sleeping between them.
};

/**
 * True when @p response is a structured failure worth resubmitting
 * ("overloaded"); fills @p retryAfterMs with the server's hint when
 * present.
 */
bool responseRetryable(const api::JsonValue &response,
                       int *retryAfterMs);

/**
 * Submit @p spec to the daemon at @p socketPath (one fresh
 * connection per attempt — a failed transport leaves no reusable
 * stream), retrying per @p policy on overload and transport errors.
 */
SubmitResult submitWithRetry(const std::string &socketPath,
                             const JobSpec &spec,
                             const RetryPolicy &policy,
                             bool wait = true);

} // namespace serve
} // namespace fpraker

#endif // FPRAKER_SERVE_RETRY_H
