#include "accel/accelerator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "common/bitutil.h"
#include "common/logging.h"
#include "compress/base_delta.h"
#include "obs/metrics.h"

namespace fpraker {

void
ScaledPeActivity::merge(const ScaledPeActivity &o)
{
    laneUseful += o.laneUseful;
    laneNoTerm += o.laneNoTerm;
    laneShiftRange += o.laneShiftRange;
    laneInterPe += o.laneInterPe;
    laneExponent += o.laneExponent;
    termsProcessed += o.termsProcessed;
    termsZeroSkipped += o.termsZeroSkipped;
    termsObSkipped += o.termsObSkipped;
    macs += o.macs;
}

ScaledPeActivity
ScaledPeActivity::fromStats(const PeStats &s, double scale)
{
    ScaledPeActivity a;
    a.laneUseful = static_cast<double>(s.laneUseful) * scale;
    a.laneNoTerm = static_cast<double>(s.laneNoTerm) * scale;
    a.laneShiftRange = static_cast<double>(s.laneShiftRange) * scale;
    a.laneInterPe = static_cast<double>(s.laneInterPe) * scale;
    a.laneExponent = static_cast<double>(s.laneExponent) * scale;
    a.termsProcessed = static_cast<double>(s.termsProcessed) * scale;
    a.termsZeroSkipped = static_cast<double>(s.termsZeroSkipped) * scale;
    a.termsObSkipped = static_cast<double>(s.termsObSkipped) * scale;
    a.macs = static_cast<double>(s.macs) * scale;
    return a;
}

double
ModelRunReport::speedupForOp(TrainingOp op) const
{
    double fpr = 0, base = 0;
    for (const auto &r : ops) {
        if (r.op != op)
            continue;
        fpr += r.fprCycles;
        base += r.baseCycles;
    }
    return fpr > 0 ? base / fpr : 1.0;
}

Accelerator::Accelerator(AcceleratorConfig cfg,
                         EnergyModelConfig energy_cfg)
    : cfg_(cfg), energy_(energy_cfg), tilePool_(cfg_.tile)
{
    panic_if(cfg_.fprTiles < 1 || cfg_.baselineTiles < 1,
             "need at least one tile per machine");
}

namespace {

FPRAKER_METRIC_COUNTER(g_bdcAnalyses, "accel.bdc_analyses",
                       "BDC footprint analyses run");

/** Values one BDC analysis compresses. */
constexpr size_t kBdcValues = 8192;

/** Distinct samples the footprint table keeps. */
constexpr size_t kBdcTableCap = 4096;

double
analyzeFootprint(const BdcSample &sample)
{
    g_bdcAnalyses.add();
    TensorGenerator gen(sample.profile, sample.seed);
    return BaseDeltaCodec().analyze(gen.generate(kBdcValues))
        .totalFootprint();
}

/** Off-chip bytes for one (layer, op): operands in, result out. */
struct OpTraffic
{
    double first = 0, second = 0, out = 0;
    double total() const { return first + second + out; }
};

/**
 * Off-chip traffic of one (layer, op) under the on-chip dataflow:
 * transient tensors (a layer's output feeding the next layer, the
 * gradient flowing backward) stay in the global buffer when they fit;
 * the forward activation stash spills to DRAM only when the model's
 * total activation footprint exceeds the stash capacity; conv weights
 * and weight gradients are amortized over the minibatch.
 */
OpTraffic
trafficBytes(const LayerShape &l, TrainingOp op, int conv_weight_batch,
             bool stash_on_chip, uint64_t transient_cap)
{
    // The activation footprint undoes im2col duplication: a conv reads
    // each input value kernel^2 times from on-chip buffers but moves
    // it off-chip only once.
    const double i_bytes =
        2.0 * static_cast<double>(l.inputFootprintValues());
    const double z_bytes = 2.0 * static_cast<double>(l.m) * l.n;
    double w_bytes = 2.0 * static_cast<double>(l.k) * l.n;
    if (l.type == LayerType::Conv && conv_weight_batch > 1)
        w_bytes /= static_cast<double>(conv_weight_batch);

    const bool i_fits = i_bytes <= static_cast<double>(transient_cap);
    const bool z_fits = z_bytes <= static_cast<double>(transient_cap);

    switch (op) {
      case TrainingOp::Forward:
        // Input arrives from the previous layer on-chip; the output is
        // written to the backward stash (DRAM only when it spills).
        return {i_fits ? 0.0 : i_bytes, w_bytes,
                stash_on_chip ? 0.0 : z_bytes};
      case TrainingOp::InputGrad:
        // The incoming dE/dZ is resident from the next layer's
        // backward step; dE/dI flows on-chip to the previous layer.
        return {z_fits ? 0.0 : z_bytes, w_bytes,
                i_fits ? 0.0 : i_bytes};
      case TrainingOp::WeightGrad:
        // Activations come back from the stash; dE/dZ is still
        // resident; dW is written once per batch.
        return {stash_on_chip ? 0.0 : i_bytes,
                z_fits ? 0.0 : z_bytes, w_bytes};
    }
    panic("bad op");
}

} // namespace

BdcSample::Key
BdcSample::key() const
{
    Key key{};
    const ProfileWords words = profileWords(profile);
    std::copy(words.begin(), words.end(), key.begin());
    key[words.size()] = seed;
    key[words.size() + 1] = kBdcValues;
    return key;
}

double
bdcFootprint(const BdcSample &sample)
{
    // Entries are never erased, so a found entry stays valid after the
    // lock drops; its once_flag makes a second asker wait for the first
    // analysis instead of repeating it.
    struct Entry
    {
        std::once_flag once;
        double footprint = 0;
    };
    static std::mutex mutex;
    static auto *table = new std::map<BdcSample::Key, Entry>;

    const BdcSample::Key key = sample.key();
    Entry *entry = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = table->find(key);
        if (it != table->end())
            entry = &it->second;
        else if (table->size() < kBdcTableCap)
            entry = &(*table)[key];
    }
    if (!entry)
        return analyzeFootprint(sample);
    std::call_once(entry->once,
                   [&] { entry->footprint = analyzeFootprint(sample); });
    return entry->footprint;
}

BdcSample
Accelerator::bdcSample(const ModelInfo &model, TensorKind kind,
                       double progress) const
{
    return BdcSample{model.profile.of(kind).at(progress),
                     cfg_.seed ^ (static_cast<uint64_t>(kind) + 11)};
}

std::vector<BdcSample>
Accelerator::bdcSamples(const ModelInfo &model, double progress) const
{
    if (!cfg_.useBdc)
        return {};
    std::vector<BdcSample> samples;
    for (TensorKind kind : {TensorKind::Activation, TensorKind::Weight,
                            TensorKind::Gradient})
        samples.push_back(bdcSample(model, kind, progress));
    return samples;
}

PhaseRunConfig
Accelerator::phaseConfig(const SlabSupply *supply) const
{
    PhaseRunConfig prc = samplingOf(cfg_);
    prc.pool = &tilePool_;
    prc.supply = supply;
    prc.memo = cfg_.memoize ? SimMemo::global() : nullptr;
    return prc;
}

PhaseRunConfig
Accelerator::samplingOf(const AcceleratorConfig &cfg)
{
    PhaseRunConfig prc;
    prc.tile = cfg.tile;
    prc.sampleSteps = cfg.sampleSteps;
    prc.seed = cfg.seed;
    prc.autoSerialSide = cfg.autoSerialSide;
    return prc;
}

LayerOpReport
Accelerator::layerOpReport(const ModelInfo &model, const LayerShape &layer,
                           TrainingOp op, double progress,
                           const PhaseRunResult &sample) const
{
    const int lanes = cfg_.tile.pe.lanes;
    LayerOpReport r;
    r.layerName = layer.name;
    r.op = op;
    r.macs = layer.macs();

    // Work in tile steps: M maps to tile columns, N to rows, K to
    // lanes (padding fractional tiles). Each machine tiles the layer
    // with its own geometry.
    uint64_t m_tiles = divCeil<uint64_t>(layer.m, cfg_.tile.cols);
    uint64_t n_tiles = divCeil<uint64_t>(layer.n, cfg_.tile.rows);
    uint64_t k_tiles = divCeil<uint64_t>(layer.k, lanes);
    r.tileSteps = m_tiles * n_tiles * k_tiles;
    uint64_t base_steps =
        divCeil<uint64_t>(layer.m, cfg_.baselineTile.cols) *
        divCeil<uint64_t>(layer.n, cfg_.baselineTile.rows) *
        divCeil<uint64_t>(layer.k, cfg_.baselineTile.pe.lanes);

    // The cycle-accurate sample of the FPRaker tile on this workload.
    r.serialSide = sample.serialSide;
    r.avgCyclesPerStep = sample.avgCyclesPerStep;
    r.sampleStats = sample.peStats;

    // Compute time: steps are spread evenly across tiles.
    double fpr_steps_per_tile = static_cast<double>(r.tileSteps) /
                                static_cast<double>(cfg_.fprTiles);
    double base_steps_per_tile = static_cast<double>(base_steps) /
                                 static_cast<double>(cfg_.baselineTiles);
    r.fprComputeCycles = fpr_steps_per_tile * sample.avgCyclesPerStep;
    r.baseComputeCycles = base_steps_per_tile;

    // Off-chip traffic and memory time (double-buffered overlap).
    double act_footprint = 0.0;
    for (const auto &l : model.layers)
        act_footprint += 2.0 * static_cast<double>(l.m) * l.n;
    bool stash_on_chip =
        act_footprint <= static_cast<double>(cfg_.actStashBytes);
    OpTraffic traffic =
        trafficBytes(layer, op, cfg_.convWeightBatch, stash_on_chip,
                     cfg_.gbTransientBytes);
    r.trafficBytes = traffic.total();
    if (cfg_.useBdc) {
        OpOperands operands = operandsOf(op);
        TensorKind out_kind =
            op == TrainingOp::Forward ? TensorKind::Activation
            : op == TrainingOp::InputGrad ? TensorKind::Gradient
                                          : TensorKind::Weight;
        auto footprint = [&](TensorKind kind) {
            return bdcFootprint(bdcSample(model, kind, progress));
        };
        r.trafficBytesCompressed =
            traffic.first * footprint(operands.first) +
            traffic.second * footprint(operands.second) +
            traffic.out * footprint(out_kind);
    } else {
        r.trafficBytesCompressed = r.trafficBytes;
    }

    DramModel dram(cfg_.dram);
    r.fprMemCycles = static_cast<double>(
        dram.cyclesForStream(
            static_cast<uint64_t>(r.trafficBytesCompressed)));
    r.baseMemCycles = static_cast<double>(
        dram.cyclesForStream(static_cast<uint64_t>(r.trafficBytes)));
    r.fprCycles = std::max(r.fprComputeCycles, r.fprMemCycles);
    r.baseCycles = std::max(r.baseComputeCycles, r.baseMemCycles);

    // Scale the sampled PE activity to the whole layer.
    double scale = sample.steps > 0
                       ? static_cast<double>(r.tileSteps) /
                             static_cast<double>(sample.steps)
                       : 0.0;
    r.activity = ScaledPeActivity::fromStats(sample.peStats, scale);

    // Energy. Core energy uses compute cycles (tiles idle during
    // memory-bound stretches are mostly clock-gated).
    r.fprEnergy.core = energy_.fprCoreEnergy(
        r.fprComputeCycles, cfg_.fprTiles, sample.peStats);

    BaselinePeStats base_stats;
    base_stats.cycles = static_cast<uint64_t>(r.baseComputeCycles);
    base_stats.macs =
        base_steps * static_cast<uint64_t>(cfg_.baselineTile.rows *
                                           cfg_.baselineTile.cols *
                                           cfg_.baselineTile.pe.lanes);
    double sparsity_first = sample.serialStats.valueSparsity();
    double sparsity_second = sample.parallelStats.valueSparsity();
    double p_ineffectual =
        1.0 - (1.0 - sparsity_first) * (1.0 - sparsity_second);
    base_stats.ineffectualMacs = static_cast<uint64_t>(
        p_ineffectual * static_cast<double>(base_stats.macs));
    r.baseEnergy.core.computePj = energy_.baseCoreEnergy(
        r.baseComputeCycles, cfg_.baselineTiles, base_stats);

    // On-chip SRAM traffic is workload-determined and equal for both
    // machines: operand reads per step (amortized over the steps the
    // per-tile scratchpads serve) plus the result writeback.
    double sram_bytes =
        static_cast<double>(r.tileSteps) *
            (cfg_.tile.cols + cfg_.tile.rows) * lanes * 2.0 /
            static_cast<double>(std::max(1, cfg_.scratchpadReuse)) +
        traffic.out;
    r.fprEnergy.sramPj = energy_.sramEnergyPj(sram_bytes);
    r.baseEnergy.sramPj = r.fprEnergy.sramPj;

    r.fprEnergy.dramPj = energy_.dramEnergyPj(r.trafficBytesCompressed);
    r.baseEnergy.dramPj = energy_.dramEnergyPj(r.trafficBytes);
    return r;
}

std::vector<LayerOpUnit>
Accelerator::modelUnits(const ModelInfo &model)
{
    std::vector<LayerOpUnit> units;
    units.reserve(model.layers.size() * 3);
    for (const LayerShape &layer : model.layers)
        for (TrainingOp op : {TrainingOp::Forward, TrainingOp::InputGrad,
                              TrainingOp::WeightGrad})
            units.push_back(LayerOpUnit{&layer, op});
    return units;
}

ModelRunReport
Accelerator::reduceModel(const ModelInfo &model, double progress,
                         std::vector<LayerOpReport> results)
{
    ModelRunReport report;
    report.model = model.name;
    report.progress = progress;
    report.ops.reserve(results.size());
    for (LayerOpReport &r : results) {
        report.fprCycles += r.fprCycles;
        report.baseCycles += r.baseCycles;
        report.fprEnergy.merge(r.fprEnergy);
        report.baseEnergy.merge(r.baseEnergy);
        report.activity.merge(r.activity);
        report.ops.push_back(std::move(r));
    }
    return report;
}

} // namespace fpraker
