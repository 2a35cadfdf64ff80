/**
 * @file
 * The FPRaker tile (paper section IV-C) and the baseline tile.
 *
 * A tile is an R x C grid of PEs performing an 8x8 vector-matrix
 * multiply per step: column c carries a serial-operand vector (8 values,
 * shared — with its term encoders — by every PE in the column), row r
 * carries a parallel-operand vector broadcast across the columns, and
 * PE(r, c) accumulates dot8(A_c, B_r).
 *
 * Because the B rows are broadcast, all columns consume B sets in order;
 * per-PE input buffers of depth N let a fast column run up to N sets
 * ahead of the slowest one before it stalls (inter-PE synchronization).
 * Exponent blocks are shared between vertical PE pairs (the
 * exponentFloor of the PE config).
 *
 * The tile model is cycle-accurate within columns (term-level lockstep,
 * see FPRakerColumn) and uses the bounded-run-ahead recurrence across
 * columns:
 *
 *   avail[s]    = max_c finish[c][s - N]   (B set s enters the buffers)
 *   start[c][s] = max(finish[c][s-1], avail[s])
 *   finish[c][s]= start[c][s] + cycles[c][s]
 *
 * Execution is split in two: a column's cycle counts and accumulator
 * contents depend only on its own operand/set sequence, never on the
 * other columns' timing, so phase A sweeps every column's sets
 * step-major under one 64-bit busy mask (which bounds a tile at 64
 * columns, as FPRakerColumn bounds a column at 64 PEs) and records
 * each set's raw cycles, before the exponent block's floor. Phase B
 * (Tile::retime) applies the floor and replays the recurrence over
 * those cycles, charging each column its broadcast-wait stalls.
 *
 * The two fields phase B reads, bufferDepth and pe.exponentFloor, are
 * the only timing-only fields (datapathOf): machines that differ only
 * in them run the same phase A, so one run serves them all, each
 * retimed from the recorded cycles. A tile runs on its caller's
 * thread; the phase runner shards whole bursts (one tile each)
 * instead.
 */

#ifndef FPRAKER_TILE_TILE_H
#define FPRAKER_TILE_TILE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "pe/baseline_pe.h"
#include "pe/fpraker_pe.h"

namespace fpraker {

/** Geometry and buffering parameters of a tile. */
struct TileConfig
{
    PeConfig pe;
    int rows = 8;        //!< PEs per column (share the column's A stream).
    int cols = 8;        //!< Columns (each with its own A stream).
    int bufferDepth = 1; //!< B-set run-ahead depth (paper: one set).

    bool operator==(const TileConfig &) const = default;
};

/**
 * @p cfg with its timing-only fields, bufferDepth and pe.exponentFloor,
 * fixed at depth one and no floor. Configs with one datapath compute
 * the same sets in the same raw cycles, with the same PeStats but for
 * the fields retime() derives.
 */
TileConfig datapathOf(TileConfig cfg);

/**
 * What a run's timing-only fields decide: its cycles and the tile
 * totals of the three PeStats fields that depend on them. Every other
 * PeStats field is the datapath's.
 */
struct TileTiming
{
    uint64_t cycles = 0;
    uint64_t laneExponent = 0;
    uint64_t laneInterPe = 0;
    uint64_t setCycles = 0;

    /** Put these timing fields in place of @p stats' own. */
    void
    applyTo(PeStats &stats) const
    {
        stats.laneExponent = laneExponent;
        stats.laneInterPe = laneInterPe;
        stats.setCycles = setCycles;
    }
};

/**
 * One tile step: the operand vectors for a single dot-8 fragment.
 * a is indexed [c * lanes + l], b is indexed [r * lanes + l].
 */
struct TileStep
{
    std::vector<BFloat16> a;
    std::vector<BFloat16> b;
};

/**
 * Borrowed view of one tile step's operands (same indexing as
 * TileStep). The hot paths stream steps out of reused flat buffers
 * through these views instead of allocating per-step vectors.
 */
struct TileStepView
{
    const BFloat16 *a = nullptr;
    const BFloat16 *b = nullptr;
};

/** Timing summary of a tile run. */
struct TileRunResult
{
    uint64_t cycles = 0; //!< Wall-clock cycles for the step sequence.
    uint64_t steps = 0;  //!< Steps processed.
    uint64_t macs = 0;   //!< MACs covered (steps x rows x cols x lanes).
};

/**
 * Cycle-level FPRaker tile.
 */
class Tile
{
  public:
    explicit Tile(const TileConfig &cfg);

    /**
     * Process a step sequence; accumulators persist across steps so a
     * sequence forms one K-dimension traversal for the whole output
     * block. Timing state (column skew) resets per call.
     */
    TileRunResult run(const std::vector<TileStep> &steps);

    /** View-based variant: @p steps[i] must have tile arity. */
    TileRunResult run(const TileStepView *steps, size_t n);

    /**
     * Phase B of the last run under @p timing's bufferDepth and
     * pe.exponentFloor: the cycles and timing stats a fresh tile of
     * @p timing reports for the same steps. @p timing must have this
     * tile's datapath; run() times itself this way.
     */
    TileTiming retime(const TileConfig &timing);

    /** Accumulated output of PE (r, c). */
    float output(int r, int c) const;

    /** Reset all PE accumulators (new output block). */
    void resetAccumulators();

    /**
     * Restore like-new state (accumulators + statistics), so a pooled
     * tile behaves bit-identically to a freshly constructed one (all
     * remaining per-set state is rebuilt by the next run).
     */
    void
    resetForReuse()
    {
        resetAccumulators();
        clearStats();
    }

    /** Tile-aggregate PE statistics. */
    PeStats aggregateStats() const;

    void clearStats();

    const TileConfig &config() const { return cfg_; }

    /** MACs per fully-utilized tile step. */
    int
    macsPerStep() const
    {
        return cfg_.rows * cfg_.cols * cfg_.pe.lanes;
    }

  private:
    TileConfig cfg_;
    //! Columns of the datapath (no floor); timing_ replaces the
    //! timing fields of their statistics.
    std::vector<std::unique_ptr<FPRakerColumn>> columns_;
    //! Shared decoded B rows: the broadcast rows are identical for
    //! every column, so phase A decodes each step's rows once,
    //! lane-major, and all columns consume them.
    FPRakerColumn::DecodedBLanes decodedLanes_;
    //! Phase-A raw cycles of the last run, [c * lastSteps_ + s].
    std::vector<int> cycleScratch_;
    size_t lastSteps_ = 0;
    TileTiming timing_; //!< Timing stats summed over runs.
    // Phase-B recurrence scratch, members so repeated run() and
    // retime() calls (one per phase burst) stay allocation-free.
    std::vector<uint64_t> finishScratch_; //!< Per-column finish time.
    std::vector<uint64_t> startScratch_;  //!< [s % depth][c], flat.
};

/**
 * The baseline tile: the same grid of bit-parallel PEs. Fully pipelined
 * — one cycle per step regardless of values.
 */
class BaselineTile
{
  public:
    explicit BaselineTile(const TileConfig &cfg);

    /** Process a step sequence (one cycle per step). */
    TileRunResult run(const std::vector<TileStep> &steps);

    float output(int r, int c) const;
    void resetAccumulators();

    BaselinePeStats aggregateStats() const;
    void clearStats();

    const TileConfig &config() const { return cfg_; }

    int
    macsPerStep() const
    {
        return cfg_.rows * cfg_.cols * cfg_.pe.lanes;
    }

  private:
    TileConfig cfg_;
    std::vector<BaselinePe> pes_; //!< Row-major [r * cols + c].
};

} // namespace fpraker

#endif // FPRAKER_TILE_TILE_H
