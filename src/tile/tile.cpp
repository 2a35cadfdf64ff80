#include "tile/tile.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace fpraker {

Tile::Tile(const TileConfig &cfg)
    : cfg_(cfg)
{
    panic_if(cfg_.rows < 1 || cfg_.cols < 1, "degenerate tile %dx%d",
             cfg_.rows, cfg_.cols);
    panic_if(cfg_.bufferDepth < 1, "buffer depth must be at least 1");
    columns_.reserve(static_cast<size_t>(cfg_.cols));
    for (int c = 0; c < cfg_.cols; ++c)
        columns_.push_back(
            std::make_unique<FPRakerColumn>(cfg_.pe, cfg_.rows));
}

TileRunResult
Tile::run(const std::vector<TileStep> &steps, SimEngine *engine)
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
    return run(views.data(), views.size(), engine);
}

TileRunResult
Tile::run(const TileStepView *steps, size_t n_steps, SimEngine *engine)
{
    const int lanes = cfg_.pe.lanes;
    const int depth = cfg_.bufferDepth;
    const size_t cols = static_cast<size_t>(cfg_.cols);

    TileRunResult result;
    result.steps = n_steps;
    result.macs =
        n_steps * static_cast<uint64_t>(macsPerStep());
    if (n_steps == 0)
        return result;

    // Phase A: simulate every column's whole set batch independently.
    // A column's per-set cycle counts, accumulator contents, and
    // datapath statistics depend only on its own operand sequence, so
    // the columns shard across the engine with no synchronization and
    // the recorded cycles feed the timing recurrence below. The
    // broadcast B rows are identical for every column, so each step's
    // rows decode once (instead of once per column) and the columns
    // consume the decoded form — bit-identical either way.
    cycleScratch_.resize(cols * n_steps);
    const size_t rows = static_cast<size_t>(cfg_.rows);
    if (engine && engine->threads() > 1) {
        // Sharded: pre-decode the whole batch (itself sharded over
        // the steps), then the columns shard over the engine.
        decodedB_.resize(n_steps * rows);
        engine->parallelFor(n_steps, [&](size_t s) {
            FPRakerColumn::decodeBRows(steps[s].b, lanes, cfg_.rows,
                                       lanes,
                                       decodedB_.data() + s * rows);
        });
        engine->parallelFor(cols, [&](size_t c) {
            FPRakerColumn &col = *columns_[c];
            int *cycles = cycleScratch_.data() + c * n_steps;
            for (size_t s = 0; s < n_steps; ++s) {
                col.beginSetDecoded(steps[s].a + c * lanes,
                                    decodedB_.data() + s * rows);
                cycles[s] = col.finishSet();
            }
        });
    } else if (cols <= 64) {
        // Serial fused sweep: step-major, so one step's decoded rows
        // feed every column while still hot, and the per-column settle
        // fixpoints advance together under one busy mask that drops
        // each column the cycle it settles. Columns never share
        // mutable state, so any interleaving of their stepCycle calls
        // is bit-identical to the column-major walk.
        decodedB_.resize(rows);
        for (size_t s = 0; s < n_steps; ++s) {
            FPRakerColumn::decodeBRows(steps[s].b, lanes, cfg_.rows,
                                       lanes, decodedB_.data());
            uint64_t busy = 0;
            for (size_t c = 0; c < cols; ++c) {
                columns_[c]->beginSetDecoded(steps[s].a + c * lanes,
                                             decodedB_.data());
                if (columns_[c]->busy())
                    busy |= uint64_t(1) << c;
            }
            while (busy) {
                for (uint64_t m = busy; m; m &= m - 1) {
                    const size_t c =
                        static_cast<size_t>(std::countr_zero(m));
                    FPRakerColumn &col = *columns_[c];
                    col.stepCycle();
                    if (!col.busy())
                        busy &= ~(uint64_t(1) << c);
                }
            }
            for (size_t c = 0; c < cols; ++c)
                cycleScratch_[c * n_steps + s] =
                    columns_[c]->finishSet();
        }
    } else {
        // Tiles wider than the 64-column sweep mask keep the
        // column-major walk (still sharing the decoded B rows).
        decodedB_.resize(n_steps * rows);
        for (size_t s = 0; s < n_steps; ++s)
            FPRakerColumn::decodeBRows(steps[s].b, lanes, cfg_.rows,
                                       lanes,
                                       decodedB_.data() + s * rows);
        for (size_t c = 0; c < cols; ++c) {
            FPRakerColumn &col = *columns_[c];
            int *cycles = cycleScratch_.data() + c * n_steps;
            for (size_t s = 0; s < n_steps; ++s) {
                col.beginSetDecoded(steps[s].a + c * lanes,
                                    decodedB_.data() + s * rows);
                cycles[s] = col.finishSet();
            }
        }
    }

    // Phase B: replay the bounded-run-ahead recurrence over the cycle
    // matrix. finish[c] holds the completion time of column c's latest
    // set; startHistory[s % depth][c] records when column c began set
    // s: a column's buffer slot frees once the set it held moves into
    // the PE's working registers, so broadcast of set s waits on
    // max_c start[c][s - depth]. With the paper's depth of one this
    // lets a fast column run exactly one set ahead of the slowest.
    // The scratch lives in members (assign() re-zeroes without
    // reallocating) so per-burst run() calls stay allocation-free.
    finishScratch_.assign(cols, 0);
    startScratch_.assign(static_cast<size_t>(depth) * cols, 0);
    waitScratch_.assign(cols, 0);
    uint64_t *finish = finishScratch_.data();
    uint64_t *waitTotal = waitScratch_.data();

    for (size_t s = 0; s < n_steps; ++s) {
        uint64_t *starts =
            startScratch_.data() + (s % static_cast<size_t>(depth)) * cols;
        uint64_t avail = 0;
        if (s >= static_cast<size_t>(depth))
            avail = *std::max_element(starts, starts + cols);
        for (size_t c = 0; c < cols; ++c) {
            uint64_t start = std::max(finish[c], avail);
            waitTotal[c] += start - finish[c];
            starts[c] = start;
            finish[c] = start + static_cast<uint64_t>(
                                    cycleScratch_[c * n_steps + s]);
        }
    }
    // Broadcast-wait stalls are pure statistics (they never touch the
    // accumulators), so charging each column its batch total is
    // bit-identical to the seed's per-set charges.
    for (size_t c = 0; c < cols; ++c)
        if (waitTotal[c] > 0)
            columns_[c]->chargeInterPeStall(
                static_cast<int>(waitTotal[c]));

    result.cycles = *std::max_element(finish, finish + cols);
    return result;
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
    return agg;
}

PeStats
Tile::columnStats(int c) const
{
    return columns_[static_cast<size_t>(c)]->aggregateStats();
}

void
Tile::clearStats()
{
    for (auto &col : columns_)
        col->clearStats();
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
BaselineTile::run(const std::vector<TileStep> &steps, SimEngine *engine)
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
    //
    // With a multi-thread engine the whole batch pre-decodes up front
    // (itself sharded over the steps) and then the PE rows shard: a
    // PE's accumulator/stats are only touched by its own row's worker,
    // in step order, so the result is bit-identical to the serial
    // walk. Serially, decode stays interleaved per step (better cache
    // reuse than a whole-batch decode pass).
    // Sharding only pays once the batch amortizes the fork/join
    // barrier and the whole-batch decode buffers; below kShardMinMacs
    // the serial walk is faster (measured 0.83x on 0.5 M MACs), so
    // small batches keep the interleaved per-step decode.
    const bool shard_rows =
        engine && engine->threads() > 1 && rows > 1 &&
        result.macs >= kShardMinMacs;
    if (shard_rows) {
        std::vector<DecodedOperands> da(steps.size() * cols);
        std::vector<DecodedOperands> db(steps.size() * rows);
        engine->parallelFor(steps.size(), [&](size_t s) {
            const TileStep &step = steps[s];
            for (size_t c = 0; c < cols; ++c)
                BaselinePe::decode(step.a.data() + c * lanes, lanes,
                                   da[s * cols + c]);
            for (size_t r = 0; r < rows; ++r)
                BaselinePe::decode(step.b.data() + r * lanes, lanes,
                                   db[s * rows + r]);
        });
        engine->parallelFor(rows, [&](size_t r) {
            BaselinePe *row_pes = pes_.data() + r * cols;
            for (size_t s = 0; s < steps.size(); ++s)
                for (size_t c = 0; c < cols; ++c)
                    row_pes[c].processDecoded(da[s * cols + c],
                                              db[s * rows + r]);
        });
        return result;
    }

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
