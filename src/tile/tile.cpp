#include "tile/tile.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace fpraker {

TileConfig
datapathOf(TileConfig cfg)
{
    cfg.bufferDepth = 1;
    cfg.pe.exponentFloor = 0;
    return cfg;
}

Tile::Tile(const TileConfig &cfg)
    : cfg_(cfg), decodedLanes_(cfg.pe.lanes, cfg.rows)
{
    panic_if(cfg_.rows < 1 || cfg_.cols < 1, "degenerate tile %dx%d",
             cfg_.rows, cfg_.cols);
    panic_if(cfg_.cols > 64,
             "tile of %d columns exceeds the 64-column busy-mask limit",
             cfg_.cols);
    panic_if(cfg_.bufferDepth < 1, "buffer depth must be at least 1");
    const PeConfig datapath = datapathOf(cfg_).pe;
    columns_.reserve(static_cast<size_t>(cfg_.cols));
    for (int c = 0; c < cfg_.cols; ++c)
        columns_.push_back(
            std::make_unique<FPRakerColumn>(datapath, cfg_.rows));
}

TileRunResult
Tile::run(const std::vector<TileStep> &steps)
{
    const int lanes = cfg_.pe.lanes;
    std::vector<TileStepView> views(steps.size());
    for (size_t s = 0; s < steps.size(); ++s) {
        panic_if(steps[s].a.size() !=
                     static_cast<size_t>(cfg_.cols) * lanes,
                 "step %zu: a has %zu values, expected %d", s,
                 steps[s].a.size(), cfg_.cols * lanes);
        panic_if(steps[s].b.size() !=
                     static_cast<size_t>(cfg_.rows) * lanes,
                 "step %zu: b has %zu values, expected %d", s,
                 steps[s].b.size(), cfg_.rows * lanes);
        views[s] = TileStepView{steps[s].a.data(), steps[s].b.data()};
    }
    return run(views.data(), views.size());
}

TileRunResult
Tile::run(const TileStepView *steps, size_t n_steps)
{
    const int lanes = cfg_.pe.lanes;
    const size_t cols = static_cast<size_t>(cfg_.cols);

    TileRunResult result;
    result.steps = n_steps;
    result.macs =
        n_steps * static_cast<uint64_t>(macsPerStep());

    // Phase A: simulate every column's set batch. A column's per-set
    // cycle counts, accumulator contents, and datapath statistics
    // depend only on its own operand sequence, so the recorded cycles
    // feed the timing recurrence below. The sweep is step-major: one
    // step's broadcast B rows decode once (instead of once per column)
    // into the columns' lane-major layout and feed every column while
    // still hot, and the per-column settle fixpoints advance together
    // under one busy mask that drops each column the cycle it settles.
    // Columns never share mutable state, so any interleaving of their
    // stepCycle calls is bit-identical to a column-major walk.
    lastSteps_ = n_steps;
    cycleScratch_.resize(cols * n_steps);
    for (size_t s = 0; s < n_steps; ++s) {
        decodedLanes_.decode(steps[s].b, lanes, lanes);
        uint64_t busy = 0;
        for (size_t c = 0; c < cols; ++c) {
            columns_[c]->beginSet(steps[s].a + c * lanes, decodedLanes_);
            if (columns_[c]->busy())
                busy |= uint64_t(1) << c;
        }
        while (busy) {
            for (uint64_t m = busy; m; m &= m - 1) {
                const size_t c = static_cast<size_t>(std::countr_zero(m));
                FPRakerColumn &col = *columns_[c];
                col.stepCycle();
                if (!col.busy())
                    busy &= ~(uint64_t(1) << c);
            }
        }
        for (size_t c = 0; c < cols; ++c)
            cycleScratch_[c * n_steps + s] = columns_[c]->finishSet();
    }

    // Phase B, under this tile's own timing fields.
    const TileTiming timing = retime(cfg_);
    timing_.laneExponent += timing.laneExponent;
    timing_.laneInterPe += timing.laneInterPe;
    timing_.setCycles += timing.setCycles;
    result.cycles = timing.cycles;
    return result;
}

TileTiming
Tile::retime(const TileConfig &timing)
{
    panic_if(!(datapathOf(timing) == datapathOf(cfg_)),
             "retime needs a config of this tile's datapath");
    panic_if(timing.bufferDepth < 1, "buffer depth must be at least 1");
    const size_t depth = static_cast<size_t>(timing.bufferDepth);
    const int floor = timing.pe.exponentFloor;
    const size_t cols = static_cast<size_t>(cfg_.cols);
    const size_t n_steps = lastSteps_;

    // The exponent block's floor stretches each short set to floor
    // cycles. Then the bounded-run-ahead recurrence: finish[c] holds
    // the completion time of column c's latest set;
    // startHistory[s % depth][c] records when column c began set s: a
    // column's buffer slot frees once the set it held moves into the
    // PE's working registers, so broadcast of set s waits on
    // max_c start[c][s - depth]. With the paper's depth of one this
    // lets a fast column run exactly one set ahead of the slowest.
    // The scratch lives in members (assign() re-zeroes without
    // reallocating) so per-burst calls stay allocation-free.
    finishScratch_.assign(cols, 0);
    startScratch_.assign(depth * cols, 0);
    uint64_t *finish = finishScratch_.data();
    uint64_t floor_cycles = 0, set_cycles = 0, wait_cycles = 0;
    for (size_t s = 0; s < n_steps; ++s) {
        uint64_t *starts = startScratch_.data() + (s % depth) * cols;
        uint64_t avail = 0;
        if (s >= depth)
            avail = *std::max_element(starts, starts + cols);
        for (size_t c = 0; c < cols; ++c) {
            const int raw = cycleScratch_[c * n_steps + s];
            const uint64_t set =
                static_cast<uint64_t>(std::max(raw, floor));
            floor_cycles += set - static_cast<uint64_t>(raw);
            set_cycles += set;
            const uint64_t start = std::max(finish[c], avail);
            wait_cycles += start - finish[c];
            starts[c] = start;
            finish[c] = start + set;
        }
    }

    // Every PE of a column is charged its column's floor and
    // broadcast-wait cycles on every lane; both are pure statistics
    // (they never touch the accumulators).
    const uint64_t rows = static_cast<uint64_t>(cfg_.rows);
    const uint64_t lanes = static_cast<uint64_t>(cfg_.pe.lanes);
    TileTiming t;
    t.cycles = *std::max_element(finish, finish + cols);
    t.laneExponent = rows * lanes * floor_cycles;
    t.laneInterPe = rows * lanes * wait_cycles;
    t.setCycles = rows * (set_cycles + wait_cycles);
    return t;
}

float
Tile::output(int r, int c) const
{
    return columns_[static_cast<size_t>(c)]->accumulator(r).total();
}

void
Tile::resetAccumulators()
{
    for (auto &col : columns_)
        col->resetAccumulators();
}

PeStats
Tile::aggregateStats() const
{
    PeStats agg;
    for (const auto &col : columns_)
        agg.merge(col->aggregateStats());
    timing_.applyTo(agg);
    return agg;
}

void
Tile::clearStats()
{
    for (auto &col : columns_)
        col->clearStats();
    timing_ = {};
}

BaselineTile::BaselineTile(const TileConfig &cfg)
    : cfg_(cfg)
{
    panic_if(cfg_.rows < 1 || cfg_.cols < 1, "degenerate tile %dx%d",
             cfg_.rows, cfg_.cols);
    pes_.assign(static_cast<size_t>(cfg_.rows) * cfg_.cols,
                BaselinePe(cfg_.pe));
}

TileRunResult
BaselineTile::run(const std::vector<TileStep> &steps)
{
    const int lanes = cfg_.pe.lanes;
    const size_t rows = static_cast<size_t>(cfg_.rows);
    const size_t cols = static_cast<size_t>(cfg_.cols);
    TileRunResult result;
    result.steps = steps.size();
    result.macs = steps.size() * static_cast<uint64_t>(macsPerStep());
    // Fully pipelined: one cycle per step.
    result.cycles = result.steps;
    if (steps.empty())
        return result;

    for (const TileStep &step : steps) {
        panic_if(step.a.size() != cols * lanes, "bad a arity %zu",
                 step.a.size());
        panic_if(step.b.size() != rows * lanes, "bad b arity %zu",
                 step.b.size());
    }

    // Batched row walk: each A column vector is shared by every PE of
    // its column and each B row vector by every PE of its row, so the
    // operand decode (finite check, sign/exponent/significand split)
    // runs once per vector per step instead of once per PE — the grid
    // then consumes the rows x cols cross product of decoded vectors.
    std::vector<DecodedOperands> da(cols);
    std::vector<DecodedOperands> db(rows);
    for (const TileStep &step : steps) {
        for (size_t c = 0; c < cols; ++c)
            BaselinePe::decode(step.a.data() + c * lanes, lanes,
                               da[c]);
        for (size_t r = 0; r < rows; ++r)
            BaselinePe::decode(step.b.data() + r * lanes, lanes,
                               db[r]);
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < cols; ++c)
                pes_[r * cols + c].processDecoded(da[c], db[r]);
    }
    return result;
}

float
BaselineTile::output(int r, int c) const
{
    return pes_[static_cast<size_t>(r) * cfg_.cols + c].resultFloat();
}

void
BaselineTile::resetAccumulators()
{
    for (auto &pe : pes_)
        pe.reset();
}

BaselinePeStats
BaselineTile::aggregateStats() const
{
    BaselinePeStats agg;
    for (const auto &pe : pes_)
        agg.merge(pe.stats());
    return agg;
}

void
BaselineTile::clearStats()
{
    for (auto &pe : pes_)
        pe.clearStats();
}

} // namespace fpraker
