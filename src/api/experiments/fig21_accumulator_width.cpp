/**
 * @file
 * Fig. 21 — FPRaker with per-layer profiled accumulator widths (Sakr
 * et al.) vs a fixed-width accumulator, for AlexNet and ResNet18. A
 * narrower accumulator raises the out-of-bounds threshold's bite and
 * skips more terms; the bit-parallel baseline cannot convert that into
 * cycles.
 */

#include <iterator>
#include <utility>
#include <vector>

#include "api/api.h"
#include "train/acc_width_profiler.h"

namespace fpraker {
namespace {

using namespace api;

/** Build an ad-hoc ModelInfo around a layer list with conv-net-like
 * value profiles (these networks train unquantized on ImageNet). */
ModelInfo
makeModel(const std::string &name, std::vector<LayerShape> layers)
{
    ModelInfo m;
    m.name = name;
    m.application = "Image Classification";
    m.dataset = "ImageNet";
    m.layers = std::move(layers);
    // Borrow the natural-training conv-net statistics of VGG16.
    m.profile = findModel("VGG16").profile;
    return m;
}

/** FPRaker cycles of a model's {AxW, GxW, AxG} phases and their total. */
struct PhaseCycles
{
    double axw = 0, gxw = 0, axg = 0;
    double total() const { return axw + gxw + axg; }
};

/**
 * Append @p model's (layer, op) jobs under a fixed or a per-layer
 * profiled accumulator width to @p jobs.
 */
void
addWidthJobs(Session &session, const std::string &prefix,
             const ModelInfo &model, bool profiled,
             std::vector<SweepLayerJob> &jobs)
{
    AccWidthConfig wcfg;
    // Each (layer, op) carries its own profiled accumulator width.
    // Distinct widths need distinct accelerator variants, but many
    // units share a width (and the fixed sweep shares one config
    // outright), so variants dedupe by threshold: one accelerator,
    // and one tile pool, per width instead of per unit.
    auto variant_for = [&](int ob_threshold) -> const Accelerator * {
        std::string name = prefix + "/ob" + std::to_string(ob_threshold);
        if (session.hasVariant(name))
            return &session.variant(name);
        AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
        cfg.sampleSteps = session.sampleSteps(64);
        cfg.tile.pe.obThreshold = ob_threshold;
        return &session.withVariant(name, cfg);
    };
    const int default_threshold =
        AcceleratorConfig::paperDefault().tile.pe.obThreshold;

    for (const auto &layer : model.layers) {
        for (TrainingOp op : {TrainingOp::Forward, TrainingOp::InputGrad,
                              TrainingOp::WeightGrad}) {
            int threshold = profiled
                                ? requiredFracBits(
                                      accumulationLength(layer, op), wcfg)
                                : default_threshold;
            jobs.push_back(SweepLayerJob{variant_for(threshold), &model,
                                         &layer, op, kDefaultProgress});
        }
    }
}

/** The phase cycles of @p reports [@p first, @p last). */
PhaseCycles
sumPhases(const std::vector<LayerOpReport> &reports, size_t first,
          size_t last)
{
    PhaseCycles out;
    for (size_t i = first; i < last; ++i) {
        const LayerOpReport &r = reports[i];
        switch (r.op) {
          case TrainingOp::Forward:
            out.axw += r.fprCycles;
            break;
          case TrainingOp::InputGrad:
            out.gxw += r.fprCycles;
            break;
          case TrainingOp::WeightGrad:
            out.axg += r.fprCycles;
            break;
        }
    }
    return out;
}

REGISTER_EXPERIMENT("fig21", "Fig. 21",
                    "per-layer profiled accumulator width vs fixed "
                    "width",
                    "profiled widths skip more out-of-bounds terms: "
                    "ResNet18 overall speedup improves substantially "
                    "over the fixed-width configuration (paper: 1.56x "
                    "vs 1.13x over the baseline)")
{
    // Every (network, width) runs in one sweep, so a (layer, op)'s
    // fixed and profiled machines share one phase group and fill each
    // operand slab once. The variants register network by network,
    // fixed before profiled, as the config digest has always listed
    // them.
    const std::pair<std::string, std::vector<LayerShape>> networks[] = {
        {"AlexNet", alexnetLayers()}, {"ResNet18", resnet18Layers()}};
    std::vector<ModelInfo> models;
    models.reserve(std::size(networks));
    std::vector<SweepLayerJob> jobs;
    // (network, width) k owns jobs [bounds[k], bounds[k + 1]).
    std::vector<size_t> bounds = {0};
    for (const auto &[name, layers] : networks) {
        const ModelInfo &model = models.emplace_back(makeModel(name, layers));
        addWidthJobs(session, name + "-fixed", model, false, jobs);
        bounds.push_back(jobs.size());
        addWidthJobs(session, name + "-prof", model, true, jobs);
        bounds.push_back(jobs.size());
    }
    const std::vector<LayerOpReport> reports = session.runLayerOps(jobs);

    Result res;
    ResultTable &t = res.table("acc_width",
                               {"network", "AxW cycles", "GxW cycles",
                                "AxG cycles", "total (norm. to fixed)"});
    for (size_t n = 0; n < std::size(networks); ++n) {
        const std::string &name = networks[n].first;
        const PhaseCycles fixed =
            sumPhases(reports, bounds[2 * n], bounds[2 * n + 1]);
        const PhaseCycles prof =
            sumPhases(reports, bounds[2 * n + 1], bounds[2 * n + 2]);
        auto pct = [&](double v, double ref) {
            return Table::pct(v / ref);
        };
        t.addRow({name, pct(fixed.axw, fixed.total()),
                  pct(fixed.gxw, fixed.total()),
                  pct(fixed.axg, fixed.total()), "100.0%"});
        t.addRow({name + "-P", pct(prof.axw, fixed.total()),
                  pct(prof.gxw, fixed.total()),
                  pct(prof.axg, fixed.total()),
                  Table::pct(prof.total() / fixed.total())});
        res.scalar(name + "_profiled_vs_fixed",
                   prof.total() / fixed.total());
    }
    return res;
}

} // namespace
} // namespace fpraker
