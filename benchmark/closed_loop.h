/**
 * @file
 * Closed-loop load generation against fprakerd.
 *
 * Each connection sends its next request only after the reply to the
 * previous one arrived, the way `fpraker submit` callers behave, so a
 * slow daemon receives less load rather than a growing backlog. The
 * accounting lives here, apart from the socket, so it can be tested
 * with a scripted transport (test_closed_loop.cpp).
 *
 * A request that fails, is refused, or returns the wrong document is a
 * miss: it is counted against the attempted total and its latency is
 * recorded as kMissNs, which the statistics treat as slower than any
 * latency limit.
 */

#ifndef FPBENCH_CLOSED_LOOP_H
#define FPBENCH_CLOSED_LOOP_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/json.h"
#include "common/clock.h"

namespace fpbench {

using fpraker::api::JsonValue;

/** What a request exercises in the daemon. */
enum class ReqKind : uint8_t
{
    Hot,     //!< Submit of a pre-warmed spec: a result-cache read.
    Cold,    //!< Submit of a never-seen spec: simulates, fills the cache.
    Metrics, //!< `metrics` poll.
};

struct Request
{
    ReqKind kind = ReqKind::Hot;
    JsonValue message;
    //! Fingerprint the served document must carry ("" = no document).
    std::string expectFingerprint;
};

enum class Outcome : uint8_t
{
    Ok,
    Refused,  //!< Admission control or shutdown turned it away.
    Failed,   //!< Transport failure or any other error reply.
    Mismatch, //!< A document arrived with the wrong fingerprint.
};

/** Latency recorded for a request that did not succeed. */
constexpr int64_t kMissNs = -1;

struct Sample
{
    ReqKind kind;
    Outcome outcome;
    int64_t startNs;
    int64_t endNs;

    int64_t
    latencyNs() const
    {
        return outcome == Outcome::Ok ? endNs - startNs : kMissNs;
    }
};

/** Judge one reply against what @p req expected. */
inline Outcome
classify(bool transportOk, const JsonValue &reply, const Request &req)
{
    if (!transportOk || !reply.isObject())
        return Outcome::Failed;
    const JsonValue *ok = reply.find("ok");
    if (!ok || ok->kind() != JsonValue::Kind::Bool)
        return Outcome::Failed;
    if (!ok->boolean()) {
        const JsonValue *code = reply.find("error_code");
        if (code && code->kind() == JsonValue::Kind::String &&
            (code->str() == "overloaded" ||
             code->str() == "shutting_down"))
            return Outcome::Refused;
        return Outcome::Failed;
    }
    if (req.expectFingerprint.empty())
        return Outcome::Ok;
    const JsonValue *fp = reply.find("fingerprint");
    const JsonValue *gate = reply.find("experiment_ok");
    if (!fp || fp->kind() != JsonValue::Kind::String ||
        fp->str() != req.expectFingerprint)
        return Outcome::Mismatch;
    if (!gate || gate->kind() != JsonValue::Kind::Bool || !gate->boolean())
        return Outcome::Mismatch;
    return Outcome::Ok;
}

/** One protocol round-trip; false on transport failure. */
using Transport = std::function<bool(const JsonValue &, JsonValue *)>;

/**
 * Drive one connection until @p deadlineNs (fpraker::now_ns clock):
 * build the next request, send it, wait for the reply, record it.
 * @p maxRequests (0 = unbounded) caps the count, for tests.
 */
inline void
runConnection(const Transport &send, const std::function<Request()> &next,
              int64_t deadlineNs, std::vector<Sample> *out,
              size_t maxRequests = 0)
{
    for (size_t n = 0; maxRequests == 0 || n < maxRequests; ++n) {
        if (fpraker::now_ns() >= deadlineNs)
            break;
        Request req = next();
        JsonValue reply;
        const int64_t t0 = fpraker::now_ns();
        const bool sent = send(req.message, &reply);
        const int64_t t1 = fpraker::now_ns();
        out->push_back(
            Sample{req.kind, classify(sent, reply, req), t0, t1});
    }
}

/** Outcome counts over a set of samples. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t refused = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;

    uint64_t misses() const { return refused + failed + mismatched; }
};

inline Tally
tally(const std::vector<Sample> &samples)
{
    Tally t;
    for (const Sample &s : samples) {
        ++t.attempted;
        switch (s.outcome) {
        case Outcome::Ok: ++t.ok; break;
        case Outcome::Refused: ++t.refused; break;
        case Outcome::Failed: ++t.failed; break;
        case Outcome::Mismatch: ++t.mismatched; break;
        }
    }
    return t;
}

/** Latencies (ns, kMissNs for misses) of every sample of @p kind. */
inline std::vector<int64_t>
latencies(const std::vector<Sample> &samples, ReqKind kind)
{
    std::vector<int64_t> out;
    for (const Sample &s : samples)
        if (s.kind == kind)
            out.push_back(s.latencyNs());
    return out;
}

} // namespace fpbench

#endif // FPBENCH_CLOSED_LOOP_H
