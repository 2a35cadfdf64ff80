/**
 * @file
 * The serving subcommands of the `fpraker` CLI (and the `fprakerd`
 * binary):
 *
 *   fpraker serve    [--socket=PATH] [--threads=N] [--workers=N]
 *                    [--cache-bytes=N] [--cache-dir=DIR]
 *                    [--trace-out=FILE]
 *   fpraker submit <id> [--socket=PATH] [--threads=N]
 *                    [--sample-steps=N] [--batch=N] [--seq=N]
 *                    [--batches=LIST] [--priority=N] [--json=FILE]
 *                    [--no-wait]
 *   fpraker status <job> [--socket=PATH]
 *   fpraker result <job> [--socket=PATH] [--json=FILE]
 *   fpraker stats    [--socket=PATH] [--json]
 *   fpraker metrics  [--socket=PATH] [--prom]
 *   fpraker shutdown [--socket=PATH]
 *
 * Flag parsing is strict like the rest of the CLI (unknown flags and
 * out-of-range values exit 2). `fprakerd` is `fpraker serve` under
 * another argv[0]. Exit status: 0 success, 1 daemon/experiment/
 * transport failure, 2 usage error.
 */

#ifndef FPRAKER_SERVE_SERVE_CLI_H
#define FPRAKER_SERVE_SERVE_CLI_H

namespace fpraker {
namespace serve {

/** `fpraker serve` / `fprakerd` — run the daemon in the foreground. */
int serveMain(int argc, char **argv, int first);

/** `fpraker submit <id>` — submit a JobSpec, await the document. */
int submitMain(int argc, char **argv, int first);

/** `fpraker status <job>` — poll a job submitted with --no-wait. */
int statusMain(int argc, char **argv, int first);

/** `fpraker result <job>` — block for and fetch a job's document. */
int resultMain(int argc, char **argv, int first);

/** `fpraker stats` — print the daemon's scheduler/cache counters
 *  (human-readable by default; --json emits the raw daemon reply
 *  after checking its shape). */
int statsMain(int argc, char **argv, int first);

/** `fpraker metrics` — dump the daemon's obs metrics registry
 *  (JSON snapshot by default; --prom for Prometheus text). */
int metricsMain(int argc, char **argv, int first);

/** `fpraker shutdown` — ask the daemon to stop. */
int shutdownMain(int argc, char **argv, int first);

} // namespace serve
} // namespace fpraker

#endif // FPRAKER_SERVE_SERVE_CLI_H
