#include "accel/phase_runner.h"

#include <algorithm>
#include <array>
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
FPRAKER_METRIC_COUNTER(
    g_burstsReplayed, "phase.bursts_replayed",
    "bursts retimed from another machine's run of the same datapath");
FPRAKER_METRIC_COUNTER(g_slabsFilled, "phase.slabs_filled",
                       "operand slabs filled for simulated bursts");
FPRAKER_METRIC_COUNTER(
    g_slabsShared, "phase.slabs_shared",
    "slab reads served by a slab filled for another machine");
FPRAKER_METRIC_HISTOGRAM(g_burstSeconds, "phase.burst_seconds",
                         "wall seconds one simulated burst took",
                         obs::Buckets::latency());
FPRAKER_METRIC_HISTOGRAM(g_fillSeconds, "phase.fill_seconds",
                         "wall seconds one burst spent filling slabs",
                         obs::Buckets::latency());
FPRAKER_METRIC_HISTOGRAM(g_classifySeconds, "phase.classify_seconds",
                         "wall seconds one burst spent classifying slabs",
                         obs::Buckets::latency());
FPRAKER_METRIC_HISTOGRAM(g_tileSeconds, "phase.tile_seconds",
                         "wall seconds one burst spent in Tile::run",
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
// 96-step phase of one layer share their leading bursts. The same key
// over datapathOf(tile) groups the machines one tile run can serve.

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
         {&plan.serialProfile, &plan.parallelProfile})
        for (uint64_t w : profileWords(*p))
            put(w);
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

// ------------------------------------------------- shared operand slabs
//
// The machines of one phase group read the same operand streams
// wherever their plans agree: a sweep's variants of one model layer
// usually differ only in the tile context, so burst bi of each asks
// for the same serial (and often parallel) slab. A group burst fills
// each distinct slab once, into an arena that lives for that burst.

/**
 * What one operand slab of a burst holds. Equal descriptors mean
 * equal bytes: a generator slab is a pure function of its profile,
 * substream seed and length (the seed also fixes its side); a trace
 * slab of its supply (one per group), burst (one per task), side and
 * length.
 */
struct SlabDesc
{
    ProfileWords profile{}; //!< Generator profile (trace: zero).
    uint64_t seed = 0;      //!< Generator seed (trace: zero).
    size_t len = 0;
    bool parallel = false;  //!< The side's window of the supply.

    bool operator==(const SlabDesc &) const = default;
};

constexpr size_t kEncodings =
    static_cast<size_t>(TermEncoding::RawBits) + 1;

/** One distinct slab of a burst and its per-encoding statistics. */
struct Slab
{
    SlabDesc desc;
    const SlabSupply *source = nullptr; //!< Fills it (first reader's).
    size_t offset = 0;                  //!< Into the burst's arena.
    std::array<std::optional<TensorStats>, kEncodings> stats;
};

/** One machine of a group: its plan, operand source and results. */
struct Member
{
    Member(const PhaseRunConfig &c, const PhasePlan &p)
        : cfg(&c), plan(p),
          generated(p.serialProfile, p.parallelProfile, p.baseSeed),
          memo(c.supply ? nullptr : c.memo), key(planKey(c.tile, p)),
          datapath(planKey(datapathOf(c.tile), p)), bursts(p.bursts)
    {}

    /** The operand source: the config's supply, else the generator. */
    const SlabSupply *
    source() const
    {
        return cfg->supply ? cfg->supply : &generated;
    }

    /** Memo key of burst @p bi: the plan key, its index and length. */
    BurstKey
    burstKey(size_t bi) const
    {
        BurstKey k = key;
        k[k.size() - 2] = bi;
        k[k.size() - 1] = plan.burstSteps(bi);
        return k;
    }

    const PhaseRunConfig *cfg;
    PhasePlan plan;
    GeneratorSlabSupply generated;
    SimMemo *memo; //!< Null for trace-backed phases.
    BurstKey key;  //!< Plan key; the last two words are zero.
    BurstKey datapath; //!< The plan key of datapathOf(the tile).
    size_t leader = 0; //!< First machine of the group with this key.
    size_t family = 0; //!< First machine with this datapath key.
    std::vector<BurstMemoValue> bursts;
};

uint64_t
keyHash(const BurstKey &key)
{
    Fnv64 h;
    h.addBytes(key.data(), sizeof(key));
    return h.value();
}

double
secondsSince(int64_t t0)
{
    return static_cast<double>(now_ns() - t0) * 1e-9;
}

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

std::vector<PhaseRunResult>
runPhaseSamples(const ModelInfo &model, const LayerShape &layer,
                TrainingOp op, const std::vector<PhaseMachine> &machines)
{
    panic_if(machines.empty(), "a phase group needs a machine");
    const SlabSupply *supply = machines.front().cfg.supply;
    SimEngine *engine = machines.front().cfg.engine;

    // Operand streams arrive through the SlabSupply seam: the default
    // generator-backed supply synthesizes each burst's windows from
    // the profile substreams, while a trace-backed supply replays
    // recorded streams. Either way a slab is a pure function of the
    // burst index, so sharding stays bit-identical. Only generator
    // bursts memoize: a trace burst's content lives in the trace
    // bytes, not in the plan.
    std::vector<Member> members;
    size_t n_bursts = 0;
    for (const PhaseMachine &machine : machines) {
        const PhaseRunConfig &cfg = machine.cfg;
        panic_if(cfg.supply != supply || cfg.engine != engine,
                 "grouped machines must share one supply and engine");
        // Every field matters, not just geometry: a pool built for a
        // different encoding/threshold/accumulator would silently
        // hand out tiles that simulate the wrong machine.
        panic_if(cfg.pool && !(cfg.pool->config() == cfg.tile),
                 "tile pool config does not match the phase config");
        Member &mb = members.emplace_back(
            cfg, planPhaseSample(model, layer, op, machine.progress, cfg));
        mb.leader = mb.family = members.size() - 1;
        for (size_t e = 0; e < mb.leader; ++e)
            if (members[e].key == mb.key) {
                mb.leader = e;
                break;
            }
        for (size_t e = 0; e < mb.family; ++e)
            if (members[e].datapath == mb.datapath) {
                mb.family = e;
                break;
            }
        n_bursts = std::max(n_bursts, mb.plan.bursts);
        g_phaseRuns.add();
        g_phaseBursts.add(mb.plan.bursts);
    }

    obs::TraceSpan phaseSpan(
        "phase", obs::TraceCollector::instance().enabled()
                     ? layer.name + ":" + opLabel(op)
                     : std::string());

    // The earlier machine whose burst bi has m's burst key (its plan
    // key and burst length), or kNone: it serves m, as a memo hit
    // would.
    constexpr size_t kNone = ~size_t{0};
    auto twin_of = [&](size_t m, size_t bi) {
        const Member &mb = members[m];
        for (size_t e = mb.leader; e < m; ++e) {
            const Member &me = members[e];
            if (me.leader == mb.leader && bi < me.plan.bursts &&
                me.plan.burstSteps(bi) == mb.plan.burstSteps(bi))
                return e;
        }
        return kNone;
    };

    // A burst covers one output block (the accumulators reset between
    // blocks), which makes bursts fully independent simulation units:
    // burst bi of every machine reads slabs that are pure functions of
    // bi and runs private tiles. Bursts therefore shard across the
    // engine and reduce in burst order, bit-identical to the serial
    // walk at any thread count.
    auto run_burst = [&](size_t bi) {
        // Resolve each machine: served by an earlier machine of the
        // group, served by its memo, or simulated. A hit copies the
        // bytes an identical simulation produced, so results stay
        // bit-identical; only WHICH bursts hit can vary with thread
        // interleaving, which is why hit counts are telemetry, never
        // fingerprint.
        std::vector<size_t> sims;
        for (size_t m = 0; m < members.size(); ++m) {
            Member &mb = members[m];
            if (bi >= mb.plan.bursts || twin_of(m, bi) != kNone)
                continue;
            if (mb.memo) {
                const BurstKey key = mb.burstKey(bi);
                if (mb.memo->lookup(keyHash(key), key.data(), sizeof(key),
                                    &mb.bursts[bi], sizeof(BurstMemoValue)))
                    continue;
            }
            sims.push_back(m);
        }

        if (!sims.empty()) {
            const int64_t burst_t0 = now_ns();
            obs::TraceSpan burstSpan(
                "burst", obs::TraceCollector::instance().enabled()
                             ? layer.name + ":b" + std::to_string(bi)
                             : std::string());

            // Each distinct slab the simulated machines read, filled
            // once into this burst's arena.
            std::vector<Slab> slabs;
            std::vector<std::array<size_t, 2>> reads(sims.size());
            size_t arena_len = 0;
            for (size_t i = 0; i < sims.size(); ++i) {
                const Member &mb = members[sims[i]];
                const PhasePlan &plan = mb.plan;
                for (bool parallel : {false, true}) {
                    SlabDesc d;
                    d.len = plan.burstSteps(bi) *
                            (parallel ? plan.bLen : plan.aLen);
                    d.parallel = parallel;
                    if (!supply) {
                        d.profile = profileWords(
                            parallel ? plan.parallelProfile
                                     : plan.serialProfile);
                        d.seed = GeneratorSlabSupply::windowSeed(
                            plan.baseSeed, bi, parallel);
                    }
                    size_t s = 0;
                    while (s < slabs.size() && !(slabs[s].desc == d))
                        ++s;
                    if (s == slabs.size()) {
                        slabs.push_back(
                            Slab{d, mb.source(), arena_len, {}});
                        arena_len += d.len;
                    }
                    reads[i][parallel ? 1 : 0] = s;
                }
            }
            g_slabsFilled.add(slabs.size());
            g_slabsShared.add(2 * sims.size() - slabs.size());
            std::vector<BFloat16> arena(arena_len);

            // The burst's three stages each get a child span (and a
            // histogram), so a trace shows where a simulated burst's
            // time goes.
            int64_t t0 = now_ns();
            {
                // One window per operand covers the whole burst (the
                // generator's fill is chunk-invariant, so this matches
                // the historical per-step fills byte for byte).
                obs::TraceSpan span("stage", "fill");
                for (const Slab &slab : slabs) {
                    BFloat16 *out = arena.data() + slab.offset;
                    if (slab.desc.parallel)
                        slab.source->fillParallel(bi, out, slab.desc.len);
                    else
                        slab.source->fillSerial(bi, out, slab.desc.len);
                }
            }
            g_fillSeconds.observe(secondsSince(t0));

            t0 = now_ns();
            {
                // TensorStats are sums, so one call per slab counts
                // what per-step calls would.
                obs::TraceSpan span("stage", "classify");
                for (size_t i = 0; i < sims.size(); ++i) {
                    const TermEncoding enc =
                        members[sims[i]].cfg->tile.pe.encoding;
                    auto stats_of = [&](size_t s) {
                        std::optional<TensorStats> &st =
                            slabs[s].stats[static_cast<size_t>(enc)];
                        if (!st)
                            st = measureTensor(
                                arena.data() + slabs[s].offset,
                                slabs[s].desc.len, enc);
                        return *st;
                    };
                    BurstMemoValue &out = members[sims[i]].bursts[bi];
                    out.serialStats = stats_of(reads[i][0]);
                    out.parallelStats = stats_of(reads[i][1]);
                }
            }
            g_classifySeconds.observe(secondsSince(t0));

            // A machine that differs from an earlier simulated one only
            // in timing (same datapath and plan, so the same slabs and
            // burst length) is retimed from that machine's tile run.
            std::vector<size_t> runner(sims.size());
            for (size_t i = 0; i < sims.size(); ++i) {
                const Member &mb = members[sims[i]];
                runner[i] = i;
                for (size_t j = 0; j < i; ++j) {
                    const Member &mj = members[sims[j]];
                    if (mj.family == mb.family &&
                        mj.plan.burstSteps(bi) == mb.plan.burstSteps(bi) &&
                        reads[j] == reads[i]) {
                        runner[i] = j;
                        break;
                    }
                }
            }

            t0 = now_ns();
            {
                obs::TraceSpan span("stage", "tile");
                for (size_t i = 0; i < sims.size(); ++i) {
                    if (runner[i] != i)
                        continue;
                    Member &mb = members[sims[i]];
                    const PhasePlan &plan = mb.plan;
                    const size_t steps = plan.burstSteps(bi);
                    // Borrow pooled scratch when a pool is configured;
                    // otherwise construct the tile locally. Pooled
                    // reuse is bit-identical (Tile::resetForReuse) and
                    // allocation-free.
                    std::optional<TilePool::Lease> lease;
                    std::optional<TilePool::Scratch> local;
                    if (mb.cfg->pool)
                        lease.emplace(mb.cfg->pool->acquire());
                    else
                        local.emplace(mb.cfg->tile);
                    TilePool::Scratch &scratch = lease ? **lease : *local;
                    scratch.views.resize(steps);
                    const BFloat16 *a =
                        arena.data() + slabs[reads[i][0]].offset;
                    const BFloat16 *b =
                        arena.data() + slabs[reads[i][1]].offset;
                    for (size_t s = 0; s < steps; ++s)
                        scratch.views[s] = TileStepView{
                            a + s * plan.aLen, b + s * plan.bLen};
                    BurstMemoValue &out = mb.bursts[bi];
                    out.cycles =
                        scratch.tile.run(scratch.views.data(), steps)
                            .cycles;
                    out.peStats = scratch.tile.aggregateStats();
                    g_phaseSteps.add(steps);
                    g_phaseCycles.add(out.cycles);
                    for (size_t j = i + 1; j < sims.size(); ++j) {
                        if (runner[j] != i)
                            continue;
                        Member &mj = members[sims[j]];
                        const TileTiming timing =
                            scratch.tile.retime(mj.cfg->tile);
                        BurstMemoValue &other = mj.bursts[bi];
                        other.cycles = timing.cycles;
                        other.peStats = out.peStats;
                        timing.applyTo(other.peStats);
                        g_burstsReplayed.add();
                    }
                }
            }
            g_tileSeconds.observe(secondsSince(t0));

            for (size_t m : sims) {
                const Member &mb = members[m];
                if (mb.memo) {
                    const BurstKey key = mb.burstKey(bi);
                    mb.memo->insert(keyHash(key), key.data(), sizeof(key),
                                    &mb.bursts[bi], sizeof(BurstMemoValue));
                }
            }
            g_burstSeconds.observe(secondsSince(burst_t0));
        }

        for (size_t m = 0; m < members.size(); ++m) {
            if (bi >= members[m].plan.bursts)
                continue;
            const size_t e = twin_of(m, bi);
            if (e != kNone)
                members[m].bursts[bi] = members[e].bursts[bi];
        }
    };

    if (engine)
        engine->parallelFor(n_bursts, run_burst);
    else
        for (size_t bi = 0; bi < n_bursts; ++bi)
            run_burst(bi);

    std::vector<PhaseRunResult> results(members.size());
    for (size_t m = 0; m < members.size(); ++m) {
        const Member &mb = members[m];
        PhaseRunResult &result = results[m];
        result.serialSide = mb.plan.serialSide;
        uint64_t total_cycles = 0;
        for (const BurstMemoValue &b : mb.bursts) {
            total_cycles += b.cycles;
            result.peStats.merge(b.peStats);
            result.serialStats.merge(b.serialStats);
            result.parallelStats.merge(b.parallelStats);
        }
        result.steps = static_cast<uint64_t>(mb.plan.sampleSteps);
        result.avgCyclesPerStep = static_cast<double>(total_cycles) /
                                  static_cast<double>(mb.plan.sampleSteps);
    }
    return results;
}

PhaseRunResult
runPhaseSample(const ModelInfo &model, const LayerShape &layer,
               TrainingOp op, double progress, const PhaseRunConfig &cfg)
{
    return runPhaseSamples(model, layer, op, {PhaseMachine{cfg, progress}})
        .front();
}

} // namespace fpraker
