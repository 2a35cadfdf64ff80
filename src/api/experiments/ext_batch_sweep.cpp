/**
 * @file
 * Extension — term-skipping payoff versus batch geometry: the catalog
 * models re-lowered at a sweep of minibatch sizes. Batch size moves
 * three things at once: GEMM M (longer phases amortize serial-side
 * setup), the activation-stash footprint (larger batches spill
 * weight-grad reads to DRAM), and the compute/memory balance — so the
 * speedup-vs-batch curves are not flat.
 */

#include <iterator>
#include <memory>

#include "api/api.h"
#include "common/logging.h"
#include "workload/lowering.h"

namespace fpraker {
namespace {

using namespace api;
using workload::BatchGeometry;
using workload::CatalogModel;
using workload::LoweredModel;

REGISTER_EXPERIMENT("ext_batch_sweep",
                    "Extension: batch-geometry sweep",
                    "catalog models lowered at a sweep of minibatch "
                    "sizes; term-skipping speedup vs batch geometry",
                    "batch size shifts GEMM M, activation-stash "
                    "occupancy, and the compute/memory balance, so "
                    "the payoff is geometry-dependent")
{
    const std::vector<int> batches =
        session.intListOption("batches", {8, 16, 32, 64});
    const int seq = session.intOption("seq", 64);
    const char *const kModels[] = {"AlexNet", "ResNet-50",
                                   "Transformer-S"};

    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = session.sampleSteps(48);
    // The lowering folds the minibatch into GEMM M; conv weights are
    // fetched once per batch already.
    cfg.convWeightBatch = 1;
    const Accelerator &accel = session.withVariant("full", cfg);

    // Lower every (model, batch) pair, then flatten all units into one
    // sharded job list. The LoweredModels own the storage the jobs
    // borrow, so they stay alive until the reports are in.
    std::vector<std::unique_ptr<LoweredModel>> lowered;
    std::vector<SweepLayerJob> jobs;
    std::vector<size_t> first;
    for (const char *name : kModels) {
        const CatalogModel &cm = workload::findWorkloadModel(name);
        for (int b : batches) {
            lowered.push_back(std::make_unique<LoweredModel>(
                cm, BatchGeometry{b, seq}));
            first.push_back(jobs.size());
            std::vector<SweepLayerJob> mj =
                lowered.back()->jobs(accel, session.progress());
            jobs.insert(jobs.end(), mj.begin(), mj.end());
        }
    }
    first.push_back(jobs.size());
    std::vector<LayerOpReport> reports = session.runLayerOps(jobs);

    Result res;
    ResultTable &t = res.table(
        "batch_sweep",
        {"model", "batch", "units", "FPRaker Mcycles",
         "baseline Mcycles", "speedup"});
    std::vector<std::string> batch_labels;
    for (int b : batches)
        batch_labels.push_back(std::to_string(b));

    size_t pair = 0;
    std::vector<double> all;
    for (const char *name : kModels) {
        std::vector<double> speedups;
        for (int b : batches) {
            double fpr = 0, base = 0;
            for (size_t i = first[pair]; i < first[pair + 1]; ++i) {
                fpr += reports[i].fprCycles;
                base += reports[i].baseCycles;
            }
            const double speedup = fpr > 0 ? base / fpr : 1.0;
            speedups.push_back(speedup);
            all.push_back(speedup);
            t.addRow({lowered[pair]->name(), std::to_string(b),
                      std::to_string(first[pair + 1] - first[pair]),
                      Table::cell(fpr / 1e6), Table::cell(base / 1e6),
                      Table::cell(speedup)});
            ++pair;
        }
        res.addSeries(std::string("speedup_") + name, batch_labels,
                      speedups);
    }
    res.scalar("geomean_speedup", geomean(all));
    res.scalar("batch_points", static_cast<int64_t>(batches.size()));
    res.scalar("models_swept",
               static_cast<int64_t>(std::size(kModels)));
    res.scalar("seq", static_cast<int64_t>(seq));
    return res;
}

} // namespace
} // namespace fpraker
