/**
 * @file
 * Tests for the public experiment API: Session parity with jobs run
 * alone, Result JSON round-trip, registry integrity, CLI
 * flag strictness, and registry-vs-legacy harness output parity
 * (fig13 rebuilt by hand through SweepRunner must checksum-match the
 * registered experiment).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "api/driver.h"
#include "api/json.h"
#include "api/registry.h"
#include "api/result.h"
#include "api/session.h"
#include "common/fnv.h"
#include "common/table.h"
#include "numeric/term_encoder.h"
#include "trace/model_zoo.h"

namespace fpraker {
namespace {

using api::CliOptions;
using api::ExperimentRegistry;
using api::JsonValue;
using api::MetricGroup;
using api::ReportWriter;
using api::Result;
using api::ResultTable;
using api::Session;

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = 24;
    return cfg;
}

uint64_t
fingerprint(const ModelRunReport &r)
{
    Fnv64 h;
    h.addRaw(r.fprCycles);
    h.addRaw(r.baseCycles);
    h.addRaw(r.fprEnergy.totalPj());
    h.addRaw(r.baseEnergy.totalPj());
    for (const LayerOpReport &op : r.ops) {
        h.addRaw(op.fprCycles);
        h.addRaw(op.avgCyclesPerStep);
        h.addRaw(static_cast<double>(op.sampleStats.setCycles));
        h.addRaw(static_cast<double>(op.sampleStats.termsObSkipped));
    }
    return h.value();
}

/** @p job run alone: a one-job sweep on a serial engine. */
ModelRunReport
runAlone(const SweepJob &job)
{
    SimEngine serial(1);
    return SweepRunner(serial).runModels({job}).front();
}

uint64_t
stringChecksum(const std::string &s)
{
    Fnv64 h;
    h.addBytes(s.data(), s.size());
    return h.value();
}

TEST(Session, ParityWithJobsRunAlone)
{
    // A Session-run sweep job must reproduce, bit for bit, what the
    // same config produces as a job run alone.
    const ModelInfo &m0 = findModel("SNLI");
    const ModelInfo &m1 = findModel("NCF");

    Accelerator direct(smallConfig());
    uint64_t want0 = fingerprint(runAlone(SweepJob{&direct, &m0, 0.5}));
    uint64_t want1 = fingerprint(runAlone(SweepJob{&direct, &m1, 0.25}));

    SimEngine engine(4);
    Session session(engine);
    const Accelerator &accel =
        session.withVariant("full", smallConfig());
    std::vector<ModelRunReport> reports = session.runModels(
        {SweepJob{&accel, &m0, 0.5}, SweepJob{&accel, &m1, 0.25}});
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(fingerprint(reports[0]), want0);
    EXPECT_EQ(fingerprint(reports[1]), want1);
}

TEST(Session, KnobsAndVariants)
{
    SimEngine engine(2);
    Session session(engine);
    EXPECT_EQ(session.threadCount(), 2);

    session.overrideSampleSteps(17);
    EXPECT_EQ(session.sampleSteps(96), 17);
    EXPECT_EQ(session.lastSampleSteps(), 17);

    session.setOption("batch", "5");
    EXPECT_EQ(session.intOption("batch", 3), 5);
    EXPECT_EQ(session.intOption("seq", 7), 7);
    EXPECT_EQ(session.strOption("batches", "8,16"), "8,16");
    EXPECT_EQ(session.intListOption("batches", {8, 16}),
              (std::vector<int>{8, 16}));
    session.setOption("batches", "4,32");
    EXPECT_EQ(session.intListOption("batches", {8, 16}),
              (std::vector<int>{4, 32}));

    session.withVariant("a", smallConfig());
    EXPECT_TRUE(session.hasVariant("a"));
    EXPECT_FALSE(session.hasVariant("b"));
    ASSERT_EQ(session.variantNames().size(), 1u);
    EXPECT_EQ(session.variantNames()[0], "a");
    EXPECT_EQ(session.configDigest().size(), 16u);

    // Same variants => same digest; different config => different.
    Session other(engine);
    other.withVariant("a", smallConfig());
    EXPECT_EQ(other.configDigest(), session.configDigest());
    Session third(engine);
    AcceleratorConfig changed = smallConfig();
    changed.useBdc = false;
    third.withVariant("a", changed);
    EXPECT_NE(third.configDigest(), session.configDigest());
}

TEST(ResultJson, RoundTrip)
{
    Result r;
    r.experiment = "unit";
    r.display = "Unit";
    r.title = "round trip";
    r.expectation = "emit -> parse -> compare";
    r.configDigest = "0123456789abcdef";
    r.threads = 3;
    r.sampleSteps = 24;
    r.variants = {"full", "zero"};
    r.scalar("geomean", 1.519);
    r.scalar("count", 42);
    r.scalar("label", "a \"quoted\"\nstring");
    r.scalar("flag", true);
    r.group("timing")
        .metric("seconds", 0.125, 6)
        .metric("checksum", "230d1bab2fa340ba");
    ResultTable &t = r.table("speedup", {"model", "value"});
    t.caption = "per-model speedup";
    t.addRow({"SNLI", "1.80"});
    t.addRow({"VGG16", "1.51"});
    r.addSeries("speedup", {"SNLI", "VGG16"}, {1.80, 1.51});
    r.note("all models above 1.0");

    std::string text = ReportWriter::renderJson(r);
    std::string error;
    JsonValue parsed = JsonValue::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(parsed, r.toJson());

    // Dump of the parsed tree re-parses to the same tree.
    JsonValue reparsed = JsonValue::parse(parsed.dump(), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(reparsed, parsed);

    // Spot-check structure and key order.
    ASSERT_TRUE(parsed.isObject());
    const JsonValue *schema = parsed.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str(), "fpraker-result-v1");
    const JsonValue *prov = parsed.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_EQ(prov->find("threads")->intValue(), 3);
    const JsonValue *tables = parsed.find("tables");
    ASSERT_NE(tables, nullptr);
    ASSERT_EQ(tables->items().size(), 1u);
    EXPECT_EQ(tables->items()[0].find("rows")->items().size(), 2u);
    const JsonValue *scalars = parsed.find("scalars");
    EXPECT_EQ(scalars->find("label")->str(), "a \"quoted\"\nstring");
    EXPECT_EQ(scalars->find("count")->intValue(), 42);
}

TEST(ResultJson, ParserRejectsMalformedInput)
{
    std::string error;
    JsonValue::parse("{\"a\": 1,}", &error);
    // Trailing comma: the parser expects another key.
    EXPECT_FALSE(error.empty());
    JsonValue::parse("[1, 2", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("{\"a\" 1}", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("tru", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("{} extra", &error);
    EXPECT_FALSE(error.empty());
    // Malformed numbers fail instead of silently truncating.
    JsonValue::parse("[1-2]", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("-", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("+1", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("1.", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("1e", &error);
    EXPECT_FALSE(error.empty());
    JsonValue::parse("-2.5e-3", &error);
    EXPECT_TRUE(error.empty()) << error;
    JsonValue v = JsonValue::parse(
        " { \"x\" : [ 1 , 2.5 , \"s\" , null , false ] } ", &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("x")->items().size(), 5u);
}

TEST(Registry, EnumeratesEveryExperimentExactlyOnce)
{
    const ExperimentRegistry &reg = ExperimentRegistry::instance();
    std::vector<const api::ExperimentInfo *> all = reg.all();
    EXPECT_GE(all.size(), 24u);
    EXPECT_EQ(all.size(), reg.size());

    std::set<std::string> ids;
    for (const api::ExperimentInfo *e : all) {
        EXPECT_TRUE(ids.insert(e->id).second)
            << "duplicate id " << e->id;
        EXPECT_FALSE(e->title.empty()) << e->id;
        EXPECT_TRUE(static_cast<bool>(e->fn)) << e->id;
        EXPECT_EQ(reg.find(e->id), e);
    }
    // Sorted by id.
    for (size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1]->id, all[i]->id);

    // The paper's headline experiments are present.
    for (const char *id :
         {"fig11", "fig13", "table1", "table3", "intro",
          "ext_inference", "fig17", "ablation_encoding"})
        EXPECT_NE(reg.find(id), nullptr) << id;
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(Registry, Fig13MatchesLegacyHarnessChecksum)
{
    // Rebuild the legacy fig13 table by hand on the pre-redesign
    // path (direct SweepRunner + printf-style cells) and require the
    // registered experiment to produce exactly the same cells.
    const int sample_steps = 24;
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = sample_steps;
    SimEngine engine(2);
    const Accelerator accel(cfg);
    std::vector<SweepJob> jobs;
    for (const auto &model : modelZoo())
        jobs.push_back(SweepJob{&accel, &model, 0.5});
    std::vector<ModelRunReport> reports =
        SweepRunner(engine).runModels(jobs);

    std::string legacy;
    for (const ModelRunReport &r : reports) {
        double zero = r.activity.termsZeroSkipped;
        double ob = r.activity.termsObSkipped;
        double skipped = zero + ob;
        double slots = r.activity.macs * kTermSlots;
        legacy += r.model + "|" + Table::pct(zero / skipped) + "|" +
                  Table::pct(ob / skipped) + "|" +
                  Table::cell(ob / slots * 100.0, 2) + "|" +
                  Table::pct(skipped / slots) + "\n";
    }

    const api::ExperimentInfo *info =
        ExperimentRegistry::instance().find("fig13");
    ASSERT_NE(info, nullptr);
    Session session(engine);
    session.overrideSampleSteps(sample_steps);
    Result result = info->fn(session);
    ASSERT_EQ(result.tables().size(), 1u);
    std::string registered;
    for (const auto &row : result.tables()[0].rows) {
        ASSERT_EQ(row.size(), 5u);
        registered += row[0] + "|" + row[1] + "|" + row[2] + "|" +
                      row[3] + "|" + row[4] + "\n";
    }
    EXPECT_EQ(stringChecksum(registered), stringChecksum(legacy));
    EXPECT_EQ(registered, legacy);
}

TEST(Driver, StrictFlagParsing)
{
    auto parse = [](std::vector<const char *> args,
                    bool allow_positionals, CliOptions *opts) {
        args.insert(args.begin(), "prog");
        std::string error;
        return api::parseCliArgs(static_cast<int>(args.size()),
                                 const_cast<char **>(args.data()), 1,
                                 allow_positionals, opts, &error);
    };

    CliOptions ok;
    EXPECT_TRUE(parse({"--threads=4", "--sample-steps=32",
                       "--json=out.json", "--batch=10", "--seq=2",
                       "--batches=4,8"},
                      false, &ok));
    EXPECT_EQ(ok.threads, 4);
    EXPECT_EQ(ok.sampleSteps, 32);
    EXPECT_EQ(ok.json, "out.json");
    ASSERT_EQ(ok.extras.size(), 3u);
    EXPECT_EQ(ok.extras[0].first, "batch");
    EXPECT_EQ(ok.extras[0].second, "10");

    CliOptions bad;
    EXPECT_FALSE(parse({"--threads=0"}, false, &bad));
    EXPECT_FALSE(parse({"--threads=-2"}, false, &bad));
    EXPECT_FALSE(parse({"--threads=abc"}, false, &bad));
    EXPECT_FALSE(parse({"--threads="}, false, &bad));
    EXPECT_FALSE(parse({"--sample-steps=0"}, false, &bad));
    EXPECT_FALSE(parse({"--bogus"}, false, &bad));
    EXPECT_FALSE(parse({"--bogus"}, true, &bad));
    EXPECT_FALSE(parse({"--batch=0"}, false, &bad));
    EXPECT_FALSE(parse({"--seq=16x"}, false, &bad));
    // --batches is checked here too, as served specs check it.
    EXPECT_FALSE(parse({"--batches=8,,16"}, true, &bad));
    EXPECT_FALSE(parse({"--batches=8,abc"}, false, &bad));
    // No experiment takes --reps: it is an unknown flag like any other.
    EXPECT_FALSE(parse({"--reps=1"}, true, &bad));
    EXPECT_FALSE(parse({"stray"}, false, &bad));
    EXPECT_FALSE(parse({"--all"}, false, &bad)); // only `run` takes --all
    // An empty path is a usage error, never a run that writes nothing.
    EXPECT_FALSE(parse({"--json="}, true, &bad));
    EXPECT_FALSE(parse({"--json-dir="}, true, &bad));
    EXPECT_FALSE(parse({"--trace-out="}, true, &bad));

    CliOptions run_opts;
    EXPECT_TRUE(parse({"run-id", "--all"}, true, &run_opts));
    EXPECT_TRUE(run_opts.all);
    ASSERT_EQ(run_opts.ids.size(), 1u);
    EXPECT_EQ(run_opts.ids[0], "run-id");
}

/** cliMain over @p args (after the program name); *out gets stdout. */
int
runCli(std::vector<const char *> args, std::string *out)
{
    args.insert(args.begin(), "fpraker");
    ::testing::internal::CaptureStdout();
    const int status = api::cliMain(static_cast<int>(args.size()),
                                    const_cast<char **>(args.data()));
    *out = ::testing::internal::GetCapturedStdout();
    return status;
}

TEST(Driver, RunPrintsInTheOrderGiven)
{
    // The experiments share one engine and may finish in any order;
    // their reports print in the order the command line gave them.
    std::string out;
    ASSERT_EQ(runCli({"run", "table3", "table2", "--threads=2"}, &out), 0);
    const size_t table3 = out.find("Table III:");
    const size_t table2 = out.find("Table II:");
    ASSERT_NE(table3, std::string::npos) << out;
    ASSERT_NE(table2, std::string::npos) << out;
    EXPECT_LT(table3, table2);
}

TEST(Driver, UnusableOutputPathFailsBeforeAnyExperimentRuns)
{
    // A --json-dir that cannot be created or written in, a --json
    // whose directory does not exist, a --json that is a directory, or
    // one the process cannot write exits 1 before any experiment runs
    // or prints.
    const std::string file = ::testing::TempDir() + "fpraker_not_a_dir";
    std::remove(file.c_str()); // a read-only leftover of a failed run
    std::FILE *f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    std::string out;
    const std::string json_dir = "--json-dir=" + file + "/sub";
    EXPECT_EQ(runCli({"run", "table2", json_dir.c_str()}, &out), 1);
    EXPECT_EQ(out, "");
    const std::string json = "--json=" + file + "/table2.json";
    EXPECT_EQ(runCli({"run", "table2", json.c_str()}, &out), 1);
    EXPECT_EQ(out, "");
    const std::string json_is_dir = "--json=" + ::testing::TempDir();
    EXPECT_EQ(runCli({"run", "table2", json_is_dir.c_str()}, &out), 1);
    EXPECT_EQ(out, "");

    // A read-only file, a new file in a read-only directory, and a
    // read-only --json-dir. A process that writes through permission
    // bits (root) cannot see them refused, so it skips these rows.
    ASSERT_EQ(::chmod(file.c_str(), 0444), 0);
    if (::access(file.c_str(), W_OK) != 0) {
        const std::string read_only = "--json=" + file;
        EXPECT_EQ(runCli({"run", "table2", read_only.c_str()}, &out), 1);
        EXPECT_EQ(out, "");
        const std::string dir = ::testing::TempDir() + "fpraker_read_only";
        ::rmdir(dir.c_str());
        ASSERT_EQ(::mkdir(dir.c_str(), 0555), 0);
        const std::string in_read_only = "--json=" + dir + "/table2.json";
        EXPECT_EQ(runCli({"run", "table2", in_read_only.c_str()}, &out), 1);
        EXPECT_EQ(out, "");
        const std::string read_only_dir = "--json-dir=" + dir;
        EXPECT_EQ(runCli({"run", "table2", read_only_dir.c_str()}, &out),
                  1);
        EXPECT_EQ(out, "");
        ::rmdir(dir.c_str());
    }
    std::remove(file.c_str());
}

TEST(Driver, SampleStepsEnvIsReadAfreshAndStrictly)
{
    const char *saved = std::getenv("FPRAKER_SAMPLE_STEPS");
    const std::string savedValue = saved ? saved : "";

    ::unsetenv("FPRAKER_SAMPLE_STEPS");
    EXPECT_EQ(api::envSampleSteps(), 0);
    ::setenv("FPRAKER_SAMPLE_STEPS", "", 1);
    EXPECT_EQ(api::envSampleSteps(), 0);
    ::setenv("FPRAKER_SAMPLE_STEPS", "24", 1);
    EXPECT_EQ(api::envSampleSteps(), 24);
    SimEngine engine(1);
    Session session(engine);
    EXPECT_EQ(session.sampleSteps(96), 24);
    ::setenv("FPRAKER_SAMPLE_STEPS", "1000000000", 1);
    EXPECT_EQ(api::envSampleSteps(), 1000000000);

#if GTEST_HAS_DEATH_TEST
    // Anything but a positive decimal integer exits naming the
    // variable, never silently runs at another budget.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const char *bad : {"1e3", "abc", "0", "-8", " 8", "8x",
                            "1000000001", "99999999999999999999"}) {
        ::setenv("FPRAKER_SAMPLE_STEPS", bad, 1);
        EXPECT_EXIT(api::envSampleSteps(), ::testing::ExitedWithCode(1),
                    "FPRAKER_SAMPLE_STEPS")
            << bad;
    }
#endif

    if (saved)
        ::setenv("FPRAKER_SAMPLE_STEPS", savedValue.c_str(), 1);
    else
        ::unsetenv("FPRAKER_SAMPLE_STEPS");
}

TEST(SweepRunner, ShardedWarmupMatchesSerialWarmup)
{
    // The sharded BDC warm-up must leave sweeps bit-identical to a
    // serial one: same reports whether the cache was warmed on a
    // serial engine (the job run alone) or by an 8-thread prelude.
    const ModelInfo &model = findModel("VGG16");
    Accelerator direct(smallConfig());
    uint64_t want = fingerprint(runAlone(SweepJob{&direct, &model, 0.75}));

    SimEngine engine(8);
    const Accelerator accel(smallConfig());
    std::vector<ModelRunReport> reports = SweepRunner(engine).runModels(
        {SweepJob{&accel, &model, 0.75},
         SweepJob{&accel, &model, 0.75}});
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(fingerprint(reports[0]), want);
    EXPECT_EQ(fingerprint(reports[1]), want);
}

TEST(RunAll, ParallelExperimentsFingerprintMatchSerial)
{
    // `fpraker run` runs each experiment in its own Session, all
    // borrowing one engine. A document's fingerprint must not depend
    // on that: one-at-a-time runs on a serial engine and concurrent
    // runs sharing an engine agree experiment by experiment.
    const std::vector<std::string> ids = {"fig01", "fig02", "fig13"};
    const ExperimentRegistry &reg = ExperimentRegistry::instance();

    SimEngine serial(1);
    std::vector<uint64_t> serial_fp;
    for (const std::string &id : ids) {
        const api::ExperimentInfo *info = reg.find(id);
        ASSERT_NE(info, nullptr) << id;
        Session session(serial);
        session.overrideSampleSteps(16);
        Result r = info->fn(session);
        r.experiment = info->id;
        serial_fp.push_back(r.fingerprint());
    }

    SimEngine engine(2);
    std::vector<uint64_t> parallel_fp(ids.size());
    engine.parallelFor(ids.size(), [&](size_t i) {
        const api::ExperimentInfo *info = reg.find(ids[i]);
        Session session(engine);
        session.overrideSampleSteps(16);
        Result r = info->fn(session);
        r.experiment = info->id;
        parallel_fp[i] = r.fingerprint();
    });

    for (size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(serial_fp[i], parallel_fp[i]) << ids[i];
}

} // namespace
} // namespace fpraker
