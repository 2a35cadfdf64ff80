/**
 * @file
 * Ablations of FPRaker's design choices (DESIGN.md section 5), beyond
 * what the paper's figures cover directly, as four registered
 * experiments:
 *
 *   ablation_encoding — canonical vs raw-bit term encoding,
 *   ablation_window   — the per-cycle shifter window (maxDelta),
 *   ablation_buffer   — B-buffer run-ahead depth,
 *   ablation_exponent — exponent-block sharing (the 2-cycle set floor).
 *
 * Each sweep reports geomean iso-area speedup across the model zoo so
 * the cost/benefit of each area optimization is visible. An ablation
 * registers all its variants and submits them as one sweep, so the
 * variants of each model layer share their operand slabs.
 */

#include "api/api.h"

namespace fpraker {
namespace {

using namespace api;

/**
 * Register every (name, config) variant, run them over the zoo in one
 * sweep, and return each variant's geomean speedup, in order.
 */
std::vector<double>
geomeanSpeedups(
    Session &session,
    const std::vector<std::pair<std::string, AcceleratorConfig>> &variants)
{
    std::vector<std::string> names;
    for (const auto &[name, cfg] : variants) {
        session.withVariant(name, cfg);
        names.push_back(name);
    }
    std::vector<ModelRunReport> reports =
        session.runModels(session.zooJobsFor(names));
    const size_t n_models = modelZoo().size();
    std::vector<double> out;
    for (size_t v = 0; v < variants.size(); ++v) {
        std::vector<double> speedups;
        for (size_t m = 0; m < n_models; ++m)
            speedups.push_back(reports[v * n_models + m].speedup());
        out.push_back(geomean(speedups));
    }
    return out;
}

REGISTER_EXPERIMENT("ablation_encoding", "Ablation: term encoding",
                    "canonical (NAF) vs raw-bit significand recoding",
                    "canonical encoding carries the design: fewer "
                    "terms per value means fewer serial cycles")
{
    AcceleratorConfig base_cfg = AcceleratorConfig::paperDefault();
    base_cfg.sampleSteps = session.sampleSteps(48);

    AcceleratorConfig raw_cfg = base_cfg;
    raw_cfg.tile.pe.encoding = TermEncoding::RawBits;
    std::vector<double> speedups = geomeanSpeedups(
        session, {{"canonical", base_cfg}, {"raw", raw_cfg}});

    Result res;
    ResultTable &t =
        res.table("encoding", {"term encoding", "geomean speedup"});
    t.addRow({"canonical (NAF)", Table::cell(speedups[0])});
    t.addRow({"raw bits", Table::cell(speedups[1])});
    return res;
}

REGISTER_EXPERIMENT("ablation_window", "Ablation: shifter window",
                    "per-cycle shifter window (maxDelta) sweep",
                    "the paper picks 3 as its area/performance "
                    "trade-off; wider windows buy little")
{
    AcceleratorConfig base_cfg = AcceleratorConfig::paperDefault();
    base_cfg.sampleSteps = session.sampleSteps(48);

    std::vector<std::string> labels;
    std::vector<std::pair<std::string, AcceleratorConfig>> variants;
    for (int delta : {0, 1, 3, 7, 1 << 20}) {
        AcceleratorConfig cfg = base_cfg;
        cfg.tile.pe.maxDelta = delta;
        labels.push_back(delta > 100 ? "unlimited"
                                     : std::to_string(delta));
        variants.emplace_back("delta-" + labels.back(), cfg);
    }
    std::vector<double> speedups = geomeanSpeedups(session, variants);

    Result res;
    ResultTable &t = res.table(
        "window", {"shifter window (maxDelta)", "geomean speedup"});
    for (size_t i = 0; i < labels.size(); ++i)
        t.addRow({labels[i], Table::cell(speedups[i])});
    res.note("(the paper picks 3 as its area/performance trade-off; "
             "in this model the window costs more than the paper's "
             "few shift-range stalls suggest because a stalled lane "
             "also holds back the other PEs sharing its term stream)");
    return res;
}

REGISTER_EXPERIMENT("ablation_buffer", "Ablation: B-buffer depth",
                    "B-buffer run-ahead depth sweep",
                    "depth 1 already hides inter-PE stalls, matching "
                    "the paper's observation")
{
    AcceleratorConfig base_cfg = AcceleratorConfig::paperDefault();
    base_cfg.sampleSteps = session.sampleSteps(48);

    const int depths[] = {1, 2, 4};
    std::vector<std::pair<std::string, AcceleratorConfig>> variants;
    for (int depth : depths) {
        AcceleratorConfig cfg = base_cfg;
        cfg.tile.bufferDepth = depth;
        variants.emplace_back("depth-" + std::to_string(depth), cfg);
    }
    std::vector<double> speedups = geomeanSpeedups(session, variants);

    Result res;
    ResultTable &t =
        res.table("buffer", {"B-buffer depth", "geomean speedup"});
    for (size_t i = 0; i < variants.size(); ++i)
        t.addRow({std::to_string(depths[i]), Table::cell(speedups[i])});
    res.note("(depth 1 already hides inter-PE stalls, matching the "
             "paper's observation)");
    return res;
}

REGISTER_EXPERIMENT("ablation_exponent", "Ablation: exponent block",
                    "exponent-block sharing (set-cycle floor) sweep",
                    "sharing between PE pairs costs little because "
                    "most sets need >= 2 cycles anyway")
{
    AcceleratorConfig base_cfg = AcceleratorConfig::paperDefault();
    base_cfg.sampleSteps = session.sampleSteps(48);

    const int floors[] = {1, 2, 4};
    const char *const labels[] = {"private (floor 1)",
                                  "shared by 2 (floor 2)",
                                  "shared by 4 (floor 4)"};
    std::vector<std::pair<std::string, AcceleratorConfig>> variants;
    for (int floor_cycles : floors) {
        AcceleratorConfig cfg = base_cfg;
        cfg.tile.pe.exponentFloor = floor_cycles;
        variants.emplace_back("floor-" + std::to_string(floor_cycles),
                              cfg);
    }
    std::vector<double> speedups = geomeanSpeedups(session, variants);

    Result res;
    ResultTable &t =
        res.table("exponent", {"exponent block", "geomean speedup"});
    for (size_t i = 0; i < variants.size(); ++i)
        t.addRow({labels[i], Table::cell(speedups[i])});
    res.note("(sharing between PE pairs costs little because most "
             "sets need >= 2 cycles anyway)");
    return res;
}

} // namespace
} // namespace fpraker
