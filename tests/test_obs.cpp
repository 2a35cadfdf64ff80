/**
 * @file
 * Tests for the observability layer (src/obs/): histogram bucket
 * semantics, per-thread shard aggregation under concurrent writers,
 * registry create-or-find and rendering, Chrome trace_event file
 * well-formedness, and the stage spans of a simulated burst.
 *
 * The trace tests run after the disabled-collector test: the
 * process-wide TraceCollector can only be switched on, so the
 * off-state assertions must come first (gtest runs tests in
 * declaration order within a binary).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/phase_runner.h"
#include "api/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/result_cache.h"
#include "sim/sim_memo.h"
#include "trace/model_zoo.h"

namespace fpraker {
namespace {

TEST(Buckets, ExponentialLadder)
{
    obs::Buckets b = obs::Buckets::exponential(1.0, 2.0, 4);
    ASSERT_EQ(b.bounds.size(), 4u);
    EXPECT_DOUBLE_EQ(b.bounds[0], 1.0);
    EXPECT_DOUBLE_EQ(b.bounds[1], 2.0);
    EXPECT_DOUBLE_EQ(b.bounds[2], 4.0);
    EXPECT_DOUBLE_EQ(b.bounds[3], 8.0);
}

TEST(Buckets, LatencyLadderIsAscending)
{
    obs::Buckets b = obs::Buckets::latency();
    ASSERT_GE(b.bounds.size(), 2u);
    EXPECT_DOUBLE_EQ(b.bounds[0], 1e-6);
    for (size_t i = 1; i < b.bounds.size(); ++i)
        EXPECT_LT(b.bounds[i - 1], b.bounds[i]);
}

TEST(Histogram, BucketBoundariesAreUpperInclusive)
{
    obs::Buckets b;
    b.bounds = {1.0, 10.0, 100.0};
    obs::Histogram h(b);
    h.observe(0.5);    // <= 1       -> bucket 0
    h.observe(1.0);    // == bound   -> bucket 0 (Prometheus `le`)
    h.observe(1.001);  // > 1, <= 10 -> bucket 1
    h.observe(10.0);   //            -> bucket 1
    h.observe(100.0);  //            -> bucket 2
    h.observe(101.0);  // above all  -> +Inf

    obs::Histogram::Snapshot s = h.snapshot();
    ASSERT_EQ(s.bounds.size(), 3u);
    ASSERT_EQ(s.counts.size(), 4u); // bounds + implicit +Inf
    EXPECT_EQ(s.counts[0], 2u);
    EXPECT_EQ(s.counts[1], 2u);
    EXPECT_EQ(s.counts[2], 1u);
    EXPECT_EQ(s.counts[3], 1u);
    EXPECT_EQ(s.count, 6u);
    EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 101.0);
}

TEST(Histogram, ZeroAndNegativeLandInFirstBucket)
{
    obs::Buckets b;
    b.bounds = {1.0, 10.0};
    obs::Histogram h(b);
    h.observe(0.0);
    h.observe(-5.0);
    obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.counts[0], 2u);
    EXPECT_EQ(s.count, 2u);
}

TEST(Counter, AggregatesAcrossConcurrentWriters)
{
    obs::Counter c;
    const int threads = 8;
    const uint64_t per_thread = 100000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&] {
            for (uint64_t i = 0; i < per_thread; ++i)
                c.add();
        });
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(c.value(), per_thread * threads);
}

TEST(Histogram, AggregatesAcrossConcurrentWriters)
{
    obs::Buckets b;
    b.bounds = {0.5, 1.5, 2.5};
    obs::Histogram h(b);
    const int threads = 8;
    const uint64_t per_thread = 49998; // divisible by 3
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&] {
            for (uint64_t i = 0; i < per_thread; ++i)
                h.observe(static_cast<double>(i % 3)); // 0, 1, 2
        });
    for (std::thread &w : workers)
        w.join();
    obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, per_thread * threads);
    // i%3 spreads evenly across the three finite buckets.
    EXPECT_EQ(s.counts[0], s.count / 3);
    EXPECT_EQ(s.counts[1], s.count / 3);
    EXPECT_EQ(s.counts[2], s.count / 3);
    EXPECT_EQ(s.counts[3], 0u);
    // 0+1+2 per triple: small integers accumulate exactly even
    // through the bit-packed CAS loop.
    EXPECT_DOUBLE_EQ(s.sum,
                     static_cast<double>(per_thread * threads));
}

TEST(Gauge, SetAndAdd)
{
    obs::Gauge g;
    g.set(42);
    EXPECT_EQ(g.value(), 42);
    g.add(-50);
    EXPECT_EQ(g.value(), -8);
}

TEST(Registry, SameNameAliasesOneInstrument)
{
    obs::Counter &a =
        obs::Registry::instance().counter("test.alias", "first");
    obs::Counter &b =
        obs::Registry::instance().counter("test.alias", "second");
    EXPECT_EQ(&a, &b);
}

TEST(Registry, SnapshotAndPromRendering)
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter &c = reg.counter("test.render.hits", "test counter");
    obs::Gauge &g = reg.gauge("test.render.depth", "test gauge");
    obs::Buckets b;
    b.bounds = {0.001, 1.0};
    obs::Histogram &h =
        reg.histogram("test.render.seconds", "test histogram", b);
    c.add(3);
    g.set(-7);
    h.observe(0.0005);
    h.observe(0.5);
    h.observe(2.0);

    api::JsonValue snap = reg.snapshotJson();
    ASSERT_TRUE(snap.isObject());
    const api::JsonValue *counters = snap.find("counters");
    const api::JsonValue *gauges = snap.find("gauges");
    const api::JsonValue *hists = snap.find("histograms");
    ASSERT_TRUE(counters && gauges && hists);
    const api::JsonValue *cv = counters->find("test.render.hits");
    ASSERT_TRUE(cv);
    EXPECT_EQ(cv->intValue(), 3);
    const api::JsonValue *gv = gauges->find("test.render.depth");
    ASSERT_TRUE(gv);
    EXPECT_EQ(gv->intValue(), -7);
    const api::JsonValue *hv = hists->find("test.render.seconds");
    ASSERT_TRUE(hv);
    const api::JsonValue *counts = hv->find("counts");
    ASSERT_TRUE(counts && counts->isArray());
    ASSERT_EQ(counts->items().size(), 3u); // 2 bounds + +Inf
    EXPECT_EQ(counts->items()[0].intValue(), 1);
    EXPECT_EQ(counts->items()[1].intValue(), 1);
    EXPECT_EQ(counts->items()[2].intValue(), 1);
    EXPECT_EQ(hv->find("count")->intValue(), 3);

    // The snapshot must round-trip as JSON. Whole-tree equality is
    // deliberately not asserted: histogram sums serialize at fixed
    // decimal precision, so a reparsed sum may sit one ulp from the
    // accumulated double. Integer-valued fields must survive exactly.
    std::string parse_error;
    api::JsonValue reparsed =
        api::JsonValue::parse(snap.dump(), &parse_error);
    EXPECT_TRUE(parse_error.empty()) << parse_error;
    const api::JsonValue *rc = reparsed.find("counters");
    const api::JsonValue *rg = reparsed.find("gauges");
    const api::JsonValue *rh = reparsed.find("histograms");
    ASSERT_TRUE(rc && rg && rh);
    EXPECT_EQ(rc->find("test.render.hits")->intValue(), 3);
    EXPECT_EQ(rg->find("test.render.depth")->intValue(), -7);
    const api::JsonValue *rhist = rh->find("test.render.seconds");
    ASSERT_TRUE(rhist);
    EXPECT_TRUE(*rhist->find("counts") == *hv->find("counts"));
    EXPECT_EQ(rhist->find("count")->intValue(), 3);

    std::string prom = reg.renderProm();
    EXPECT_NE(prom.find("# TYPE fpraker_test_render_hits counter"),
              std::string::npos);
    EXPECT_NE(prom.find("fpraker_test_render_hits 3"),
              std::string::npos);
    EXPECT_NE(prom.find("fpraker_test_render_depth -7"),
              std::string::npos);
    // Cumulative buckets with the +Inf terminator.
    EXPECT_NE(prom.find("fpraker_test_render_seconds_bucket"
                        "{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(prom.find("fpraker_test_render_seconds_count 3"),
              std::string::npos);
}

TEST(Registry, SnapshotHasWiredInstruments)
{
    // Instruments register at static init of the instrumented
    // translation units; fpraker_core is a static library, so touch
    // the memo and cache types here to make the linker keep their
    // objects (any real binary references them anyway).
    SimMemo memo(1u << 20);
    serve::ResultCache cache(1u << 20);
    api::JsonValue snap = obs::Registry::instance().snapshotJson();
    const api::JsonValue *counters = snap.find("counters");
    ASSERT_TRUE(counters);
    EXPECT_TRUE(counters->find("memo.hits"));
    EXPECT_TRUE(counters->find("cache.hits"));
}

// ---------------------------------------------------------- tracing

TEST(Trace, DisabledSpanRecordsNothing)
{
    obs::TraceCollector &tc = obs::TraceCollector::instance();
    ASSERT_FALSE(tc.enabled());
    size_t before = tc.eventCount();
    {
        obs::TraceSpan span("test", "disabled");
    }
    tc.instant("test", "disabled-instant");
    EXPECT_EQ(tc.eventCount(), before);
}

TEST(Trace, WriteProducesWellFormedTraceEvents)
{
    obs::TraceCollector &tc = obs::TraceCollector::instance();
    tc.enable();
    ASSERT_TRUE(tc.enabled());

    const int threads = 4;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            for (int i = 0; i < 8; ++i) {
                obs::TraceSpan span(
                    "test", "span:" + std::to_string(t) + ":" +
                                std::to_string(i));
            }
            tc.instant("test", "marker:" + std::to_string(t));
        });
    for (std::thread &w : workers)
        w.join();
    EXPECT_GE(tc.eventCount(),
              static_cast<size_t>(threads * 9));

    const std::string path = "test_obs_trace.json";
    ASSERT_TRUE(tc.writeTo(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());

    std::string parse_error;
    api::JsonValue doc =
        api::JsonValue::parse(buf.str(), &parse_error);
    ASSERT_TRUE(parse_error.empty()) << parse_error;
    ASSERT_TRUE(doc.isObject());
    const api::JsonValue *events = doc.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    EXPECT_GE(events->items().size(),
              static_cast<size_t>(threads * 9));

    std::set<int64_t> tids;
    size_t complete = 0, instant = 0;
    for (const api::JsonValue &e : events->items()) {
        ASSERT_TRUE(e.isObject());
        const api::JsonValue *ph = e.find("ph");
        ASSERT_TRUE(ph);
        // Only X (complete) and i (instant) events: balanced by
        // construction, nothing to orphan.
        ASSERT_TRUE(ph->str() == "X" || ph->str() == "i");
        ASSERT_TRUE(e.find("cat"));
        ASSERT_TRUE(e.find("name"));
        ASSERT_TRUE(e.find("pid"));
        ASSERT_TRUE(e.find("tid"));
        const api::JsonValue *ts = e.find("ts");
        ASSERT_TRUE(ts);
        EXPECT_GE(ts->number(), 0.0);
        tids.insert(e.find("tid")->intValue());
        if (ph->str() == "X") {
            ++complete;
            const api::JsonValue *dur = e.find("dur");
            ASSERT_TRUE(dur);
            EXPECT_GE(dur->number(), 0.0);
        } else {
            ++instant;
        }
    }
    EXPECT_GE(complete, static_cast<size_t>(threads * 8));
    EXPECT_GE(instant, static_cast<size_t>(threads));
    // Each worker thread got its own tid in the merged stream.
    EXPECT_GE(tids.size(), static_cast<size_t>(threads));
}

/** Complete-event counts by category and name, from a fresh write. */
std::map<std::string, std::map<std::string, size_t>>
spanCounts()
{
    const std::string path = "test_obs_stage_trace.json";
    EXPECT_TRUE(obs::TraceCollector::instance().writeTo(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    std::string parse_error;
    api::JsonValue doc = api::JsonValue::parse(buf.str(), &parse_error);
    EXPECT_TRUE(parse_error.empty()) << parse_error;
    std::map<std::string, std::map<std::string, size_t>> counts;
    const api::JsonValue *events = doc.find("traceEvents");
    if (!events)
        return counts;
    for (const api::JsonValue &e : events->items())
        if (e.find("ph")->str() == "X")
            ++counts[e.find("cat")->str()][e.find("name")->str()];
    return counts;
}

TEST(Trace, EverySimulatedBurstHasThreeStageSpans)
{
    // A traced phase with the memo off: every burst simulates and is
    // split into its fill, classify and tile stages.
    obs::TraceCollector::instance().enable();
    auto before = spanCounts();

    const ModelInfo &model = findModel("VGG16");
    PhaseRunConfig cfg;
    cfg.sampleSteps = 40;
    cfg.stepsPerOutput = 8;
    const PhasePlan plan = planPhaseSample(
        model, model.layers[4], TrainingOp::Forward, 0.5, cfg);
    ASSERT_GT(plan.bursts, 1u);
    runPhaseSample(model, model.layers[4], TrainingOp::Forward, 0.5, cfg);

    auto after = spanCounts();
    size_t bursts = 0;
    for (const auto &[name, n] : after["burst"])
        bursts += n - before["burst"][name];
    EXPECT_EQ(bursts, plan.bursts);
    for (const char *stage : {"fill", "classify", "tile"})
        EXPECT_EQ(after["stage"][stage] - before["stage"][stage],
                  plan.bursts)
            << stage;
    EXPECT_EQ(after["stage"].size(), 3u);
}

} // namespace
} // namespace fpraker
