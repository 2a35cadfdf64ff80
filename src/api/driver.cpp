#include "api/driver.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/parse.h"
#include "numeric/slab_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve_cli.h"

namespace fpraker {
namespace api {

namespace {

void
printUsage(FILE *to, const char *prog)
{
    std::fprintf(
        to,
        "usage: %s <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                 list the registered experiments\n"
        "  run <id>...          run one or more experiments\n"
        "  run --all            run every registered experiment\n"
        "  serve                run the fprakerd daemon (see\n"
        "                       docs/SERVING.md; also the fprakerd\n"
        "                       binary): --socket= --threads=\n"
        "                       --workers= --cache-bytes= --cache-dir=\n"
        "                       --queue-depth= --io-timeout= --fault=\n"
        "  submit <id>          submit an experiment to the daemon\n"
        "                       and await its document (--socket=\n"
        "                       --json= --priority= --deadline-ms=\n"
        "                       --retries= --no-wait --sample-steps=\n"
        "                       and the workload knobs);\n"
        "                       overload rejections back off and\n"
        "                       retry per the daemon's hint\n"
        "  status <job>         poll a job submitted with --no-wait\n"
        "  result <job>         fetch (blocking) a job's document\n"
        "                       (--socket= --json=)\n"
        "  stats                print the daemon's scheduler/cache\n"
        "                       counters (--socket= --json)\n"
        "  metrics              print the daemon's full obs metrics\n"
        "                       registry (--socket=; --prom for a\n"
        "                       Prometheus text exposition)\n"
        "  shutdown             stop the daemon (--socket=)\n"
        "  help                 show this text\n"
        "\n"
        "options:\n"
        "  --threads=N          simulation worker threads (N >= 1;\n"
        "                       default FPRAKER_THREADS, else serial)\n"
        "  --sample-steps=N     tile steps sampled per (layer, op)\n"
        "                       (default FPRAKER_SAMPLE_STEPS, else the\n"
        "                       experiment's own budget)\n"
        "  --json=FILE          write the result document as JSON\n"
        "                       (requires exactly one experiment)\n"
        "  --json-dir=DIR       write one <id>.json per experiment\n"
        "  --trace-out=FILE     write a Chrome trace_event JSON of the\n"
        "                       run's spans (chrome://tracing/Perfetto;\n"
        "                       see docs/OBSERVABILITY.md)\n"
        "  --telemetry          fold the obs metrics snapshot into each\n"
        "                       result document (opt-in 'telemetry'\n"
        "                       section; never fingerprinted)\n"
        "  --batch=N --seq=N --batches=LIST\n"
        "                       workload-experiment geometry knobs\n"
        "                       (ext_workload_catalog, ext_conv_im2col,\n"
        "                       ext_batch_sweep)\n"
        "\n"
        "Results are bit-identical at any thread count; the knobs only\n"
        "change wall-clock time and sampling noise.\n",
        prog);
}

} // namespace

bool
parseCliArgs(int argc, char **argv, int first, bool allow_positionals,
             CliOptions *opts, std::string *error)
{
    for (int i = first; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--threads=", 10) == 0) {
            if (!parsePositiveInt(arg + 10, &opts->threads)) {
                *error = std::string("--threads requires an integer "
                                     ">= 1 (got '") +
                         (arg + 10) + "')";
                return false;
            }
        } else if (std::strncmp(arg, "--sample-steps=", 15) == 0) {
            if (!parsePositiveInt(arg + 15, &opts->sampleSteps)) {
                *error = std::string("--sample-steps requires an "
                                     "integer >= 1 (got '") +
                         (arg + 15) + "')";
                return false;
            }
        } else if (std::strncmp(arg, "--json=", 7) == 0) {
            opts->json = arg + 7;
        } else if (std::strncmp(arg, "--json-dir=", 11) == 0) {
            opts->jsonDir = arg + 11;
        } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
            if (!arg[12]) {
                *error = "--trace-out requires a file path";
                return false;
            }
            opts->traceOut = arg + 12;
        } else if (std::strcmp(arg, "--telemetry") == 0) {
            opts->telemetry = true;
        } else if (std::strncmp(arg, "--batch=", 8) == 0 ||
                   std::strncmp(arg, "--seq=", 6) == 0 ||
                   std::strncmp(arg, "--batches=", 10) == 0) {
            const char *eq = std::strchr(arg, '=');
            std::string key(arg + 2, eq);
            if (!checkOption(key, eq + 1, error)) {
                *error = "--" + *error + " (got '" + (eq + 1) + "')";
                return false;
            }
            opts->extras.emplace_back(std::move(key), eq + 1);
        } else if (std::strcmp(arg, "--all") == 0) {
            if (!allow_positionals) {
                *error = "--all is only valid with `fpraker run`";
                return false;
            }
            opts->all = true;
        } else if (arg[0] == '-') {
            *error = std::string("unknown flag '") + arg + "'";
            return false;
        } else if (allow_positionals) {
            opts->ids.push_back(arg);
        } else {
            *error = std::string("unexpected argument '") + arg + "'";
            return false;
        }
    }
    return true;
}

Result
produceResult(const ExperimentInfo &info, const CliOptions &opts,
              SimEngine *shared)
{
    Session session;
    if (shared)
        session.shareEngine(shared);
    else if (opts.threads > 0)
        session.threads(opts.threads);
    if (opts.sampleSteps > 0)
        session.overrideSampleSteps(opts.sampleSteps);
    for (const auto &[key, value] : opts.extras)
        session.setOption(key, value);

    Result result = [&] {
        obs::TraceSpan span("experiment", info.id);
        return info.fn(session);
    }();
    result.experiment = info.id;
    result.display = info.display;
    result.title = info.title;
    result.expectation = info.expectation;
    result.configDigest = session.configDigest();
    result.threads = session.threadCount();
    result.sampleSteps = session.lastSampleSteps();
    result.simdLevel = slab::simdLevel();
    result.variants = session.variantNames();
    if (opts.telemetry) {
        // Snapshot AFTER the run so the document reflects the work it
        // describes. Rendered only under the opt-in flag and excluded
        // from the fingerprint.
        result.telemetry = obs::Registry::instance().snapshotJson();
        result.hasTelemetry = true;
    }
    return result;
}

ExperimentOutcome
runExperimentBuffered(const ExperimentInfo &info, const CliOptions &opts,
                      SimEngine *shared)
{
    Result result = produceResult(info, opts, shared);

    ExperimentOutcome out;
    out.text = ReportWriter::renderText(result);
    if (!opts.json.empty())
        ReportWriter::writeJson(result, opts.json);
    if (!opts.jsonDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.jsonDir, ec);
        ReportWriter::writeJson(result,
                                opts.jsonDir + "/" + info.id + ".json");
    }
    out.status = result.ok ? 0 : 1;
    return out;
}

int
runExperiment(const ExperimentInfo &info, const CliOptions &opts)
{
    ExperimentOutcome out = runExperimentBuffered(info, opts, nullptr);
    std::fputs(out.text.c_str(), stdout);
    return out.status;
}

int
cliMain(int argc, char **argv)
{
    const char *prog = argc > 0 ? argv[0] : "fpraker";
    if (argc < 2) {
        printUsage(stderr, prog);
        return 2;
    }
    const std::string command = argv[1];
    const ExperimentRegistry &registry = ExperimentRegistry::instance();

    if (command == "help" || command == "--help" || command == "-h") {
        printUsage(stdout, prog);
        return 0;
    }

    if (command == "list") {
        CliOptions opts;
        std::string error;
        if (!parseCliArgs(argc, argv, 2, false, &opts, &error)) {
            std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
            return 2;
        }
        std::vector<const ExperimentInfo *> all = registry.all();
        size_t width = 0;
        for (const ExperimentInfo *e : all)
            width = std::max(width, e->id.size());
        for (const ExperimentInfo *e : all)
            std::printf("%-*s  %s — %s\n", static_cast<int>(width),
                        e->id.c_str(), e->display.c_str(),
                        e->title.c_str());
        std::printf("%zu experiments registered\n", all.size());
        return 0;
    }

    if (command == "run") {
        CliOptions opts;
        std::string error;
        if (!parseCliArgs(argc, argv, 2, true, &opts, &error)) {
            std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
            printUsage(stderr, prog);
            return 2;
        }
        if (opts.all && !opts.ids.empty()) {
            std::fprintf(stderr,
                         "%s: give either --all or experiment ids, "
                         "not both\n",
                         prog);
            return 2;
        }
        if (!opts.all && opts.ids.empty()) {
            std::fprintf(stderr,
                         "%s: `run` needs experiment ids or --all "
                         "(try `%s list`)\n",
                         prog, prog);
            printUsage(stderr, prog);
            return 2;
        }

        std::vector<const ExperimentInfo *> todo;
        if (opts.all) {
            todo = registry.all();
        } else {
            for (const std::string &id : opts.ids) {
                const ExperimentInfo *info = registry.find(id);
                if (!info) {
                    std::fprintf(stderr,
                                 "%s: unknown experiment '%s' "
                                 "(try `%s list`)\n",
                                 prog, id.c_str(), prog);
                    return 2;
                }
                todo.push_back(info);
            }
        }
        if (!opts.json.empty() && todo.size() != 1) {
            std::fprintf(stderr,
                         "%s: --json requires exactly one experiment "
                         "(use --json-dir for several)\n",
                         prog);
            return 2;
        }

        // Enable span collection before any experiment runs; the
        // merged file is written once, after the last one finishes.
        if (!opts.traceOut.empty())
            obs::TraceCollector::instance().enable();
        auto write_trace = [&]() {
            if (opts.traceOut.empty())
                return;
            if (!obs::TraceCollector::instance().writeTo(
                    opts.traceOut))
                std::fprintf(stderr, "%s: cannot write trace to %s\n",
                             prog, opts.traceOut.c_str());
            else
                std::printf("wrote %s\n", opts.traceOut.c_str());
        };

        if (opts.all) {
            // Independent experiments shard across ONE shared engine
            // (each session borrows it; inner fan-outs re-enter it).
            // Reports buffer per experiment and print in registry
            // order, so stdout matches a serial sweep (up to
            // wall-clock readings) and each document's fingerprint
            // matches a serial run exactly.
            SimEngine engine(opts.threads);
            if (!opts.jsonDir.empty()) {
                std::error_code ec;
                std::filesystem::create_directories(opts.jsonDir, ec);
            }
            std::vector<ExperimentOutcome> outcomes(todo.size());
            engine.parallelFor(todo.size(), [&](size_t i) {
                outcomes[i] =
                    runExperimentBuffered(*todo[i], opts, &engine);
            });
            int status = 0;
            for (size_t i = 0; i < outcomes.size(); ++i) {
                if (i)
                    std::printf("\n");
                std::fputs(outcomes[i].text.c_str(), stdout);
                status |= outcomes[i].status;
            }
            write_trace();
            return status;
        }

        int status = 0;
        for (size_t i = 0; i < todo.size(); ++i) {
            if (i)
                std::printf("\n");
            status |= runExperiment(*todo[i], opts);
        }
        write_trace();
        return status;
    }

    if (command == "serve")
        return serve::serveMain(argc, argv, 2);
    if (command == "submit")
        return serve::submitMain(argc, argv, 2);
    if (command == "status")
        return serve::statusMain(argc, argv, 2);
    if (command == "result")
        return serve::resultMain(argc, argv, 2);
    if (command == "stats")
        return serve::statsMain(argc, argv, 2);
    if (command == "metrics")
        return serve::metricsMain(argc, argv, 2);
    if (command == "shutdown")
        return serve::shutdownMain(argc, argv, 2);

    std::fprintf(stderr, "%s: unknown command '%s'\n", prog,
                 command.c_str());
    printUsage(stderr, prog);
    return 2;
}

} // namespace api
} // namespace fpraker
