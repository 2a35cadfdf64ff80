/**
 * @file
 * The experiment CLI driver behind `fpraker list` / `fpraker run`,
 * shared with the serve layer's `submit` and JobScheduler.
 *
 * Flag parsing is strict: unknown --flags, out-of-range values
 * (e.g. --threads=0) and empty paths (--json=) print usage to stderr
 * and exit with status 2. Exit status 1 means an experiment ran but
 * failed one of its own gates (a determinism check), or, before any
 * experiment runs, that --json-dir cannot be created or --json's
 * directory does not exist; 0 is success.
 */

#ifndef FPRAKER_API_DRIVER_H
#define FPRAKER_API_DRIVER_H

#include <string>
#include <vector>

#include "api/registry.h"

namespace fpraker {
namespace api {

/** Parsed command-line options shared by all entry points. */
struct CliOptions
{
    int threads = 0;     //!< 0 = default (FPRAKER_THREADS or serial).
    int sampleSteps = 0; //!< 0 = default (env or experiment fallback).
    std::string json;    //!< --json=FILE (single experiment).
    std::string jsonDir; //!< --json-dir=DIR (one <id>.json each).
    //! --trace-out=FILE: collect obs spans, write Chrome trace_event
    //! JSON when the run finishes (loadable in chrome://tracing).
    std::string traceOut;
    //! --telemetry: fold the obs-registry snapshot into each result
    //! document (opt-in; never fingerprinted).
    bool telemetry = false;
    bool all = false;    //!< run --all
    //! Experiment-specific workload options (--batch/--seq/--batches).
    std::vector<std::pair<std::string, std::string>> extras;
    std::vector<std::string> ids; //!< Positional experiment ids.
};

/**
 * Parse argv[first..). @p allow_positionals permits bare experiment
 * ids and --all (the `fpraker run` form); `fpraker list` accepts
 * flags only. On error fills @p error and returns false.
 */
bool parseCliArgs(int argc, char **argv, int first,
                  bool allow_positionals, CliOptions *opts,
                  std::string *error);

/**
 * Run one registered experiment under a fresh Session on @p engine,
 * configured from @p opts, and return the finished Result (identity
 * and provenance filled), without rendering or writing anything. This
 * is the execution core shared by `fpraker run` and the serve layer's
 * JobScheduler (src/serve/scheduler.h). The entry point owns the
 * engine: opts.threads sizes nothing here, and a null @p engine
 * panics.
 */
Result produceResult(const ExperimentInfo &info, const CliOptions &opts,
                     SimEngine *engine);

/** Entry point for the `fpraker` multiplexer (list / run). */
int cliMain(int argc, char **argv);

} // namespace api
} // namespace fpraker

#endif // FPRAKER_API_DRIVER_H
