/**
 * @file
 * End-to-end accelerator simulation of one model (paper Sec. V-B /
 * Fig. 11's unit of work) through the public Session API: per-layer
 * speedup, stall profile, and energy of the iso-compute-area FPRaker
 * machine (36 tiles) vs the bit-parallel baseline (8 tiles).
 *
 *   ./accelerator_sim ["ResNet18-Q"] [progress]
 *
 * Model names are Table I's (`fpraker run table1`). Set
 * FPRAKER_THREADS to shard the run's (layer, op) units, phase-sample
 * bursts, and tile columns — the report is bit-identical at any
 * thread count. Sweeps over many models/configs/phases are exactly
 * what the registered experiments do (see docs/API.md and
 * src/api/experiments/fig11_perf_energy.cpp).
 */

#include <cstdio>
#include <cstdlib>

#include "api/session.h"
#include "common/table.h"
#include "trace/model_zoo.h"

using namespace fpraker;

int
main(int argc, char **argv)
{
    std::string model_name = argc > 1 ? argv[1] : "ResNet18-Q";
    double progress = argc > 2 ? std::atof(argv[2]) : 0.5;

    const ModelInfo &model = findModel(model_name);

    // One variant, one job: the Session API's smallest sweep. The
    // engine's size comes from FPRAKER_THREADS, and the session
    // resolves FPRAKER_SAMPLE_STEPS (fallback 96).
    SimEngine engine;
    api::Session session(engine);
    AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
    cfg.sampleSteps = session.sampleSteps(96);
    const Accelerator &accel = session.withVariant("full", cfg);

    std::printf("simulating %s (%zu layers, %.2f GMACs/op) at %.0f%% "
                "training progress\n",
                model.name.c_str(), model.layers.size(),
                static_cast<double>(model.macsPerOp()) / 1e9,
                progress * 100.0);

    std::vector<ModelRunReport> reports =
        session.runModels({SweepJob{&accel, &model, progress}});
    const ModelRunReport &report = reports.front();

    Table t({"layer", "op", "serial", "cyc/step", "speedup"});
    // Print the forward ops of up to 12 largest layers for brevity.
    size_t printed = 0;
    for (const auto &op : report.ops) {
        if (op.op != TrainingOp::Forward || printed >= 12)
            continue;
        t.addRow({op.layerName, opLabel(op.op),
                  tensorLabel(op.serialSide),
                  Table::cell(op.avgCyclesPerStep),
                  Table::cell(op.speedup())});
        ++printed;
    }
    t.print();

    std::printf("\ntotals:\n");
    std::printf("  speedup:                 %.2fx\n", report.speedup());
    std::printf("  per-phase: AxW %.2fx, GxW %.2fx, AxG %.2fx\n",
                report.speedupForOp(TrainingOp::Forward),
                report.speedupForOp(TrainingOp::InputGrad),
                report.speedupForOp(TrainingOp::WeightGrad));
    std::printf("  core energy efficiency:  %.2fx\n",
                report.coreEnergyEfficiency());
    std::printf("  total energy efficiency: %.2fx\n",
                report.totalEnergyEfficiency());
    double lc = report.activity.laneCycles();
    std::printf("  lane cycles: %.1f%% useful, %.1f%% no-term, %.1f%% "
                "shift-range, %.1f%% inter-PE, %.1f%% exponent\n",
                100 * report.activity.laneUseful / lc,
                100 * report.activity.laneNoTerm / lc,
                100 * report.activity.laneShiftRange / lc,
                100 * report.activity.laneInterPe / lc,
                100 * report.activity.laneExponent / lc);
    std::printf("\n(session: %d worker threads, %d sample steps, "
                "config digest %s)\n",
                session.threadCount(), session.lastSampleSteps(),
                session.configDigest().c_str());
    return 0;
}
