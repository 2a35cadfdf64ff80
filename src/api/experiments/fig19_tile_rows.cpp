/**
 * @file
 * Fig. 19 — FPRaker speedup vs the number of PE rows per tile
 * (2/4/8/16) at a fixed total PE budget: more rows share one serial
 * operand stream, increasing intra-column synchronization.
 */

#include "api/api.h"

namespace fpraker {
namespace {

using namespace api;

REGISTER_EXPERIMENT("fig19", "Fig. 19", "speedup vs rows per tile",
                    "increasing rows per tile costs ~6% on average "
                    "from 2 to 16 rows (more PEs synchronized on one "
                    "A stream)")
{
    const int rows_options[] = {2, 4, 8, 16};
    const int pe_budget = 36 * 64; // total PEs at iso-compute area

    // 16 PEs share one A stream in the widest configuration, two of
    // the column's 8-PE vector groups; the 4 variants x 9 models fan
    // out as one job list over a shared engine.
    std::vector<std::string> names;
    for (int rows : rows_options) {
        AcceleratorConfig cfg = AcceleratorConfig::paperDefault();
        cfg.sampleSteps = session.sampleSteps(64);
        cfg.tile.rows = rows;
        cfg.fprTiles = pe_budget / (rows * cfg.tile.cols);
        names.push_back(std::to_string(rows) + "-rows");
        session.withVariant(names.back(), cfg);
    }
    std::vector<ModelRunReport> reports =
        session.runModels(session.zooJobsFor(names));
    const size_t n_models = modelZoo().size();

    Result res;
    std::vector<std::string> headers = {"model"};
    for (int rows : rows_options)
        headers.push_back(std::to_string(rows) + " rows");
    ResultTable &t = res.table("rows_speedup", headers);

    std::vector<std::vector<double>> per_rows(4);
    std::vector<std::string> model_labels;
    for (size_t m = 0; m < n_models; ++m) {
        std::vector<std::string> row = {reports[m].model};
        model_labels.push_back(reports[m].model);
        for (size_t i = 0; i < 4; ++i) {
            const ModelRunReport &r = reports[i * n_models + m];
            per_rows[i].push_back(r.speedup());
            row.push_back(Table::cell(r.speedup()));
        }
        t.addRow(row);
    }
    std::vector<std::string> geo = {"Geomean"};
    std::vector<double> geo_values;
    std::vector<std::string> rows_labels;
    for (size_t i = 0; i < 4; ++i) {
        geo.push_back(Table::cell(geomean(per_rows[i])));
        res.scalar("geomean_speedup_" +
                       std::to_string(rows_options[i]) + "_rows",
                   geomean(per_rows[i]));
        geo_values.push_back(geomean(per_rows[i]));
        rows_labels.push_back(std::to_string(rows_options[i]) +
                              " rows");
        res.addSeries("speedup_" + std::to_string(rows_options[i]) +
                          "_rows",
                      model_labels, per_rows[i]);
    }
    t.addRow(geo);
    res.addSeries("geomean_speedup", rows_labels, geo_values);
    return res;
}

} // namespace
} // namespace fpraker
