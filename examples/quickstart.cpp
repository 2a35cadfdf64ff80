/**
 * @file
 * Quickstart: the smallest end-to-end tour of the public experiment
 * API (src/api/) — build a Session, register an accelerator variant,
 * sweep two models, and render a structured Result both as a text
 * table and as a fpraker-result-v1 JSON document.
 *
 * This is the same surface the `fpraker` CLI drives: an experiment is
 * just a function from Session to Result (see docs/API.md for how to
 * register one). For a guided tour of the PE internals instead, see
 * examples/pe_walkthrough.cpp.
 *
 *   ./quickstart
 */

#include <cstdio>

#include "api/result.h"
#include "api/session.h"
#include "common/table.h"
#include "trace/model_zoo.h"

using namespace fpraker;

int
main()
{
    // The program owns the worker pool; a Session runs on it and owns
    // the sampling knob and named accelerator variants. All results
    // are bit-identical at any thread count.
    SimEngine engine(2);
    api::Session session(engine);

    // Register the paper's full FPRaker configuration (Table II) as a
    // named variant. sampleSteps(48) resolves the sampling budget:
    // FPRAKER_SAMPLE_STEPS wins if set, else the 48 fallback.
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = session.sampleSteps(48);
    const Accelerator &full = session.withVariant("full", cfg);

    // Sweep two Table I models at mid-training statistics. Jobs
    // flatten into (layer, op) units and shard across the pool.
    std::vector<ModelRunReport> reports = session.runModels(
        {SweepJob{&full, &findModel("ResNet18-Q"), 0.5},
         SweepJob{&full, &findModel("SNLI"), 0.5}});

    // Collect the measurements into a structured Result: tables for
    // humans, scalars/series/provenance for tools.
    api::Result res;
    res.experiment = "quickstart";
    res.display = "Quickstart";
    res.title = "two-model speedup sweep through the Session API";
    res.expectation = "ResNet18-Q ~2x, SNLI ~1.8x (Fig. 11)";
    res.configDigest = session.configDigest();
    res.threads = session.threadCount();
    res.sampleSteps = session.lastSampleSteps();
    res.variants = session.variantNames();

    api::ResultTable &t = res.table(
        "speedup", {"model", "speedup", "core-energy-eff"});
    for (const ModelRunReport &r : reports) {
        t.addRow({r.model, Table::cell(r.speedup()),
                  Table::cell(r.coreEnergyEfficiency())});
        res.scalar("speedup_" + r.model, r.speedup());
    }

    api::ReportWriter::print(res);

    // The same document as canonical JSON (what `fpraker run
    // <id> --json=FILE` writes; scripts/check_result_schema.py
    // validates the schema).
    std::printf("\nJSON document:\n%s",
                api::ReportWriter::renderJson(res).c_str());
    return 0;
}
