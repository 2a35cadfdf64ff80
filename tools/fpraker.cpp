/**
 * @file
 * `fpraker` — the experiment multiplexer. One binary drives every
 * registered figure/table/extension experiment:
 *
 *   fpraker list
 *   fpraker run fig11 --threads=8 --json=fig11.json
 *   fpraker run --all --json-dir=results
 *
 * See docs/API.md for the Session/Registry/Result tour.
 */

#include "api/driver.h"

int
main(int argc, char **argv)
{
    return fpraker::api::cliMain(argc, argv);
}
