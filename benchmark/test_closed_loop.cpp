/**
 * @file
 * Tests of the closed-loop client's accounting (closed_loop.h) with a
 * scripted transport: refused, failed, and wrong-document replies must
 * all count as misses, and a miss must never contribute a latency.
 *
 *   cmake --build .bench_build --target test_closed_loop
 *   .bench_build/test_closed_loop      # exit 0 = pass
 */

#include <cstdio>
#include <limits>

#include "closed_loop.h"

using namespace fpbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                    \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                         __LINE__, #cond);                             \
            ++g_failures;                                              \
        }                                                              \
    } while (0)

JsonValue
reply(const char *text)
{
    std::string error;
    JsonValue v = JsonValue::parse(text, &error);
    CHECK(error.empty());
    return v;
}

Request
submitExpecting(const char *fp)
{
    Request r;
    r.kind = ReqKind::Hot;
    r.message = JsonValue::object();
    r.message.set("op", "submit");
    r.expectFingerprint = fp;
    return r;
}

void
testClassify()
{
    const Request hot = submitExpecting("00000000000000aa");
    CHECK(classify(true,
                   reply("{\"ok\":true,\"fingerprint\":"
                         "\"00000000000000aa\",\"experiment_ok\":true}"),
                   hot) == Outcome::Ok);
    CHECK(classify(true,
                   reply("{\"ok\":true,\"fingerprint\":"
                         "\"00000000000000bb\",\"experiment_ok\":true}"),
                   hot) == Outcome::Mismatch);
    // A document whose experiment failed its own gate is wrong too.
    CHECK(classify(true,
                   reply("{\"ok\":true,\"fingerprint\":"
                         "\"00000000000000aa\",\"experiment_ok\":false}"),
                   hot) == Outcome::Mismatch);
    CHECK(classify(true, reply("{\"ok\":true}"), hot) ==
          Outcome::Mismatch);
    CHECK(classify(true,
                   reply("{\"ok\":false,\"error_code\":\"overloaded\","
                         "\"retry_after_ms\":5}"),
                   hot) == Outcome::Refused);
    CHECK(classify(true,
                   reply("{\"ok\":false,\"error_code\":"
                         "\"shutting_down\"}"),
                   hot) == Outcome::Refused);
    CHECK(classify(true,
                   reply("{\"ok\":false,\"error_code\":\"timeout\"}"),
                   hot) == Outcome::Failed);
    CHECK(classify(false, JsonValue(), hot) == Outcome::Failed);
    CHECK(classify(true, reply("[1,2]"), hot) == Outcome::Failed);

    Request poll;
    poll.kind = ReqKind::Metrics;
    CHECK(classify(true, reply("{\"ok\":true,\"metrics\":{}}"), poll) ==
          Outcome::Ok);
}

void
testLoopCountsMisses()
{
    // Script: ok, refused, transport failure, wrong document, ok.
    const char *script[] = {
        "{\"ok\":true,\"fingerprint\":\"00000000000000aa\","
        "\"experiment_ok\":true}",
        "{\"ok\":false,\"error_code\":\"overloaded\"}",
        nullptr,
        "{\"ok\":true,\"fingerprint\":\"0000000000000000\","
        "\"experiment_ok\":true}",
        "{\"ok\":true,\"fingerprint\":\"00000000000000aa\","
        "\"experiment_ok\":true}",
    };
    size_t call = 0;
    Transport send = [&](const JsonValue &, JsonValue *out) {
        const char *text = script[call++];
        if (!text)
            return false;
        *out = reply(text);
        return true;
    };
    std::vector<Sample> samples;
    runConnection(send, [] { return submitExpecting("00000000000000aa"); },
                  std::numeric_limits<int64_t>::max(), &samples, 5);

    CHECK(samples.size() == 5);
    const Tally t = tally(samples);
    CHECK(t.attempted == 5);
    CHECK(t.ok == 2);
    CHECK(t.refused == 1);
    CHECK(t.failed == 1);
    CHECK(t.mismatched == 1);
    CHECK(t.misses() == 3);

    const std::vector<int64_t> lat = latencies(samples, ReqKind::Hot);
    CHECK(lat.size() == 5);
    size_t missing = 0;
    for (int64_t ns : lat) {
        if (ns == kMissNs)
            ++missing;
        else
            CHECK(ns >= 0);
    }
    CHECK(missing == 3);
    CHECK(latencies(samples, ReqKind::Cold).empty());
}

void
testDeadlineStopsLoop()
{
    size_t calls = 0;
    Transport send = [&](const JsonValue &, JsonValue *out) {
        ++calls;
        *out = reply("{\"ok\":true}");
        return true;
    };
    std::vector<Sample> samples;
    runConnection(send, [] { return Request{}; }, fpraker::now_ns() - 1,
                  &samples);
    CHECK(calls == 0);
    CHECK(samples.empty());
}

} // namespace

int
main()
{
    testClassify();
    testLoopCountsMisses();
    testDeadlineStopsLoop();
    if (g_failures) {
        std::fprintf(stderr, "test_closed_loop: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("test_closed_loop: all checks passed\n");
    return 0;
}
