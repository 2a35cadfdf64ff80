/**
 * @file
 * Fig. 11 — iso-compute-area performance and energy efficiency of
 * FPRaker vs the baseline, with the contribution breakdown: zero-term
 * skipping, + exponent base-delta compression (BDC), + out-of-bounds
 * (OB) term skipping.
 */

#include "api/api.h"

namespace fpraker {
namespace {

using namespace api;

REGISTER_EXPERIMENT("fig11", "Fig. 11",
                    "iso-compute-area performance and energy "
                    "efficiency vs baseline",
                    "geomean ~1.5x total speedup (zero terms +9%, BDC "
                    "+5.8%, OB +35.2%); ResNet18-Q best conv model "
                    "~2.04x; SNLI ~1.8x; core energy efficiency ~1.4x "
                    "tracking speedup")
{
    AcceleratorVariants variants =
        makeVariants(session.sampleSteps());

    // All 3 variants x 9 models submit through one session runner:
    // the phase groups of the whole figure shard across a single
    // engine instead of 27 serial model runs, and each group's
    // variants share their operand slabs ("zero" and "zero+bdc" are
    // one machine on the tile, so each of their bursts runs once).
    session.withVariant("zero", variants.zeroOnly);
    session.withVariant("zero+bdc", variants.zeroBdc);
    session.withVariant("full", variants.full);
    std::vector<ModelRunReport> reports = session.runModels(
        session.zooJobsFor({"zero", "zero+bdc", "full"}));

    Result res;
    ResultTable &t = res.table("perf_energy",
                               {"model", "perf(zero)", "perf(zero+BDC)",
                                "perf(total:+OB)", "core-energy-eff"});
    std::vector<std::string> labels;
    std::vector<double> s_zero, s_bdc, s_full, e_core;
    const size_t n_models = modelZoo().size();
    for (size_t m = 0; m < n_models; ++m) {
        const ModelRunReport &r0 = reports[m];
        const ModelRunReport &r1 = reports[n_models + m];
        const ModelRunReport &r2 = reports[2 * n_models + m];
        labels.push_back(r0.model);
        s_zero.push_back(r0.speedup());
        s_bdc.push_back(r1.speedup());
        s_full.push_back(r2.speedup());
        e_core.push_back(r2.coreEnergyEfficiency());
        t.addRow({r0.model, Table::cell(r0.speedup()),
                  Table::cell(r1.speedup()), Table::cell(r2.speedup()),
                  Table::cell(r2.coreEnergyEfficiency())});
    }
    t.addRow({"Geomean", Table::cell(geomean(s_zero)),
              Table::cell(geomean(s_bdc)), Table::cell(geomean(s_full)),
              Table::cell(geomean(e_core))});

    res.addSeries("speedup_zero", labels, s_zero);
    res.addSeries("speedup_zero_bdc", labels, s_bdc);
    res.addSeries("speedup_full", labels, s_full);
    res.addSeries("core_energy_efficiency", labels, e_core);
    res.scalar("geomean_speedup_zero", geomean(s_zero));
    res.scalar("geomean_speedup_zero_bdc", geomean(s_bdc));
    res.scalar("geomean_speedup_full", geomean(s_full));
    res.scalar("geomean_core_energy_efficiency", geomean(e_core));
    return res;
}

} // namespace
} // namespace fpraker
