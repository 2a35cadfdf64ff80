#include "accel/phase_runner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fpraker {

namespace {

FPRAKER_METRIC_COUNTER(g_phaseRuns, "phase.runs",
                       "phase samples run");
FPRAKER_METRIC_COUNTER(g_phaseBursts, "phase.bursts",
                       "bursts planned (memo hits included)");
FPRAKER_METRIC_COUNTER(g_phaseSteps, "phase.steps",
                       "sample steps of simulated bursts");
FPRAKER_METRIC_COUNTER(g_phaseCycles, "phase.sim_cycles",
                       "tile cycles of simulated bursts");
FPRAKER_METRIC_HISTOGRAM(g_burstSeconds, "phase.burst_seconds",
                         "wall seconds one simulated burst took",
                         obs::Buckets::latency());

// ------------------------------------------------------- memo keying
//
// A generator-backed burst is a pure function of the simulated-machine
// context (every TileConfig/PeConfig/AccumulatorConfig field plus the
// effective accumulation depth), the phase plan minus its sample budget
// (seed, geometry, sides, profiles), and the burst's index and length:
// its operands come from substreamSeed(baseSeed, 2 * bi [+ 1]), its
// accumulators reset before it, and phase runs read only its cycles
// and statistics. That is the whole memo key, so a 48-step and a
// 96-step phase of one layer share their leading bursts.

uint64_t
tileContextDigest(const TileConfig &t, int steps_per_output)
{
    Fnv64 h;
    h.add(static_cast<uint64_t>(t.pe.lanes));
    h.add(static_cast<uint64_t>(t.pe.maxDelta));
    h.add(static_cast<uint64_t>(t.pe.skipOutOfBounds ? 1 : 0));
    // What the simulators read: -1 and fracBits are one machine.
    h.add(static_cast<uint64_t>(t.pe.effectiveObThreshold()));
    h.add(static_cast<uint64_t>(t.pe.encoding));
    h.add(static_cast<uint64_t>(t.pe.acc.fracBits));
    h.add(static_cast<uint64_t>(t.pe.acc.intBits));
    h.add(static_cast<uint64_t>(t.pe.acc.chunkSize));
    h.add(static_cast<uint64_t>(t.pe.exponentFloor));
    h.add(static_cast<uint64_t>(t.rows));
    h.add(static_cast<uint64_t>(t.cols));
    h.add(static_cast<uint64_t>(t.bufferDepth));
    h.add(static_cast<uint64_t>(steps_per_output));
    return h.value();
}

/** Memo key of one burst; the last two words are its index and length. */
using BurstKey = std::array<uint64_t, 22>;

BurstKey
planKey(const TileConfig &t, const PhasePlan &plan)
{
    BurstKey key{};
    size_t i = 0;
    auto put = [&](uint64_t v) { key[i++] = v; };
    put(tileContextDigest(t, plan.stepsPerOutput));
    put(plan.baseSeed);
    put(plan.aLen);
    put(plan.bLen);
    put(static_cast<uint64_t>(plan.serialSide));
    put(static_cast<uint64_t>(plan.parallelSide));
    for (const ValueProfile *p :
         {&plan.serialProfile, &plan.parallelProfile}) {
        put(std::bit_cast<uint64_t>(p->sparsity));
        put(std::bit_cast<uint64_t>(p->zeroClusterLen));
        put(std::bit_cast<uint64_t>(p->expMu));
        put(std::bit_cast<uint64_t>(p->expSigma));
        put(std::bit_cast<uint64_t>(p->expCorr));
        put(static_cast<uint64_t>(p->mantissaBits));
        put(std::bit_cast<uint64_t>(p->bitDensity));
    }
    panic_if(i + 2 != key.size(), "burst key layout out of date");
    return key;
}

/** One burst's result, which is also its memo value. */
struct BurstMemoValue
{
    uint64_t cycles = 0;
    PeStats peStats;
    TensorStats serialStats;
    TensorStats parallelStats;
};
static_assert(std::is_trivially_copyable_v<BurstMemoValue> &&
                  sizeof(BurstMemoValue) ==
                      (1 + 11 + 3 + 3) * sizeof(uint64_t),
              "BurstMemoValue must be a packed POD (memo byte copies)");

} // namespace

TensorKind
chooseSerialSide(const ModelInfo &model, TrainingOp op, double progress)
{
    OpOperands operands = operandsOf(op);
    ValueProfile a = model.profile.of(operands.first).at(progress);
    ValueProfile b = model.profile.of(operands.second).at(progress);
    return a.expectedTermsPerValue() <= b.expectedTermsPerValue()
               ? operands.first
               : operands.second;
}

PhasePlan
planPhaseSample(const ModelInfo &model, const LayerShape &layer,
                TrainingOp op, double progress, const PhaseRunConfig &cfg)
{
    panic_if(cfg.sampleSteps < 1, "need at least one sample step");

    PhasePlan plan;
    OpOperands operands = operandsOf(op);
    plan.serialSide = cfg.autoSerialSide
                          ? chooseSerialSide(model, op, progress)
                          : operands.first;
    plan.parallelSide = plan.serialSide == operands.first
                            ? operands.second
                            : operands.first;
    plan.serialProfile =
        model.profile.of(plan.serialSide).at(progress);
    plan.parallelProfile =
        model.profile.of(plan.parallelSide).at(progress);

    // Seed streams per (layer, op) so repeated runs are reproducible
    // but distinct layers see distinct values.
    plan.baseSeed = cfg.seed * 1000003 +
                    std::hash<std::string>{}(layer.name) +
                    static_cast<uint64_t>(op) * 97;

    const int lanes = cfg.tile.pe.lanes;
    plan.aLen = static_cast<size_t>(cfg.tile.cols) * lanes;
    plan.bLen = static_cast<size_t>(cfg.tile.rows) * lanes;
    plan.sampleSteps = cfg.sampleSteps;

    // Cap the accumulation depth at the layer's actual K traversal.
    plan.stepsPerOutput = std::max<int>(
        1, std::min<int64_t>(cfg.stepsPerOutput,
                             (layer.k + lanes - 1) / lanes));
    plan.bursts = (static_cast<size_t>(cfg.sampleSteps) +
                   static_cast<size_t>(plan.stepsPerOutput) - 1) /
                  static_cast<size_t>(plan.stepsPerOutput);
    return plan;
}

PhaseRunResult
runPhaseSample(const ModelInfo &model, const LayerShape &layer,
               TrainingOp op, double progress, const PhaseRunConfig &cfg)
{
    const PhasePlan plan =
        planPhaseSample(model, layer, op, progress, cfg);
    const size_t a_len = plan.aLen;
    const size_t b_len = plan.bLen;

    g_phaseRuns.add();
    g_phaseBursts.add(plan.bursts);
    obs::TraceSpan phaseSpan(
        "phase", obs::TraceCollector::instance().enabled()
                     ? layer.name + ":" + opLabel(op)
                     : std::string());

    // Operand streams arrive through the SlabSupply seam: the default
    // generator-backed supply synthesizes each burst's windows from
    // the profile substreams, while a trace-backed supply replays
    // recorded streams. Either way the fill is a pure function of the
    // burst index, so sharding stays bit-identical. Only generator
    // bursts memoize: a trace burst's content lives in the trace bytes,
    // not in the plan.
    GeneratorSlabSupply generated(plan.serialProfile,
                                  plan.parallelProfile, plan.baseSeed);
    const SlabSupply &supply = cfg.supply ? *cfg.supply : generated;
    SimMemo *memo = cfg.supply ? nullptr : cfg.memo;
    const BurstKey plan_key = memo ? planKey(cfg.tile, plan) : BurstKey{};

    // Every field matters, not just geometry: a pool built for a
    // different encoding/threshold/accumulator would silently hand
    // out tiles that simulate the wrong machine.
    panic_if(cfg.pool && !(cfg.pool->config() == cfg.tile),
             "tile pool config does not match the phase config");

    // A burst covers one output block (the accumulators reset between
    // blocks), which makes bursts fully independent simulation units:
    // each fills its own operand windows through the supply and runs a
    // private tile. Bursts therefore shard across the engine and
    // reduce in burst order, bit-identical to the serial walk at any
    // thread count.
    std::vector<BurstMemoValue> bursts(plan.bursts);
    auto run_burst = [&](size_t bi) {
        const size_t burst = plan.burstSteps(bi);
        BurstMemoValue &out = bursts[bi];

        // A hit copies the bytes an identical simulation produced, so
        // results stay bit-identical; only WHICH bursts hit can vary
        // with thread interleaving, which is why hit counts are
        // telemetry, never fingerprint.
        BurstKey key = plan_key;
        uint64_t hash = 0;
        if (memo) {
            key[key.size() - 2] = bi;
            key[key.size() - 1] = burst;
            Fnv64 h;
            h.addBytes(key.data(), sizeof(key));
            hash = h.value();
            if (memo->lookup(hash, key.data(), sizeof(key), &out,
                             sizeof(out)))
                return;
        }

        const int64_t burst_t0 = now_ns();
        obs::TraceSpan burstSpan(
            "burst", obs::TraceCollector::instance().enabled()
                         ? layer.name + ":b" + std::to_string(bi)
                         : std::string());

        // Borrow pooled scratch when a pool is configured; otherwise
        // construct the burst's working set locally. Pooled reuse is
        // bit-identical (Tile::resetForReuse) and allocation-free.
        std::optional<TilePool::Lease> lease;
        std::optional<TilePool::Scratch> local;
        if (cfg.pool)
            lease.emplace(cfg.pool->acquire());
        else
            local.emplace(cfg.tile);
        TilePool::Scratch &scratch = lease ? **lease : *local;
        scratch.a.resize(burst * a_len);
        scratch.b.resize(burst * b_len);
        scratch.views.resize(burst);

        // The burst's three stages each get a child span, so a trace
        // shows where a simulated burst's time goes.
        {
            // One window per operand covers the whole burst (the
            // generator's fill is chunk-invariant, so this matches the
            // historical per-step fills byte for byte).
            obs::TraceSpan span("stage", "fill");
            supply.fillSerial(bi, scratch.a.data(), burst * a_len);
            supply.fillParallel(bi, scratch.b.data(), burst * b_len);
        }
        {
            // TensorStats are sums, so one call per operand slab
            // counts what per-step calls would.
            obs::TraceSpan span("stage", "classify");
            out.serialStats = measureTensor(
                scratch.a.data(), burst * a_len, cfg.tile.pe.encoding);
            out.parallelStats = measureTensor(
                scratch.b.data(), burst * b_len, cfg.tile.pe.encoding);
        }
        {
            obs::TraceSpan span("stage", "tile");
            for (size_t s = 0; s < burst; ++s)
                scratch.views[s] =
                    TileStepView{scratch.a.data() + s * a_len,
                                 scratch.b.data() + s * b_len};
            out.cycles =
                scratch.tile.run(scratch.views.data(), burst).cycles;
            out.peStats = scratch.tile.aggregateStats();
        }

        if (memo)
            memo->insert(hash, key.data(), sizeof(key), &out,
                         sizeof(out));
        g_phaseSteps.add(burst);
        g_phaseCycles.add(out.cycles);
        g_burstSeconds.observe(
            static_cast<double>(now_ns() - burst_t0) * 1e-9);
    };

    if (cfg.engine)
        cfg.engine->parallelFor(plan.bursts, run_burst);
    else
        for (size_t bi = 0; bi < plan.bursts; ++bi)
            run_burst(bi);

    PhaseRunResult result;
    result.serialSide = plan.serialSide;
    uint64_t total_cycles = 0;
    for (const BurstMemoValue &b : bursts) {
        total_cycles += b.cycles;
        result.peStats.merge(b.peStats);
        result.serialStats.merge(b.serialStats);
        result.parallelStats.merge(b.parallelStats);
    }
    result.steps = static_cast<uint64_t>(cfg.sampleSteps);
    result.avgCyclesPerStep = static_cast<double>(total_cycles) /
                              static_cast<double>(cfg.sampleSteps);
    return result;
}

} // namespace fpraker
