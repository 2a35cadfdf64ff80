/**
 * @file
 * Seed-parity reference model of the FPRaker PE column and tile.
 *
 * This is the original (pre-optimization) cycle-level algorithm kept
 * verbatim: per-set TermEncoder::encode calls, full out-of-bounds
 * rescans to a fixpoint, and the serial per-step column walk. It exists
 * for two reasons:
 *
 *  - differential testing: the optimized FPRakerColumn / Tile must
 *    produce bit-identical cycles, accumulator values, and statistics
 *    (tests/test_sim.cpp fuzzes the two against each other);
 *  - golden checksums: tests/test_sim.cpp pins this path's tile
 *    digest, and requires the optimized engine at every thread count
 *    to reproduce it.
 *
 * Do not optimize this file; it is the contract.
 */

#ifndef FPRAKER_SIM_REFERENCE_COLUMN_H
#define FPRAKER_SIM_REFERENCE_COLUMN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pe/exponent_block.h"
#include "pe/pe_common.h"

namespace fpraker {

/** Seed-parity FPRaker PE column (see FPRakerColumn for semantics). */
class ReferenceColumn
{
  public:
    ReferenceColumn(const PeConfig &cfg, int num_pes);

    void beginSet(const BFloat16 *a, const BFloat16 *b, int b_stride);
    bool busy() const;
    void stepCycle();
    int finishSet();

    int
    runSet(const BFloat16 *a, const BFloat16 *b, int b_stride)
    {
        beginSet(a, b, b_stride);
        return finishSet();
    }

    void chargeInterPeStall(int cycles);

    ChunkedAccumulator &accumulator(int pe);
    const ChunkedAccumulator &accumulator(int pe) const;
    void resetAccumulators();

    const PeStats &stats(int pe) const;
    PeStats aggregateStats() const;

    int numPes() const { return numPes_; }
    const PeConfig &config() const { return cfg_; }

  private:
    struct LaneStream
    {
        TermStream terms;
        int cursor = 0;
    };

    struct PeLane
    {
        int abExp = 0;
        bool prodNeg = false;
        int bSig = 0;
        bool fired = false;
        bool obDone = false;
    };

    struct PeState
    {
        ChunkedAccumulator acc;
        PeStats stats;
    };

    PeLane &lane(int pe, int l) { return peLanes_[pe * cfg_.lanes + l]; }

    void scanOutOfBounds();
    bool advanceCursors();
    void settle();
    bool allStreamsDone() const;

    PeConfig cfg_;
    int numPes_;
    TermEncoder encoder_;
    std::vector<LaneStream> streams_;
    std::vector<PeLane> peLanes_;
    std::vector<PeState> pes_;
    int setCycles_ = 0;
    bool inSet_ = false;
};

/** Timing summary of a reference tile run (mirrors TileRunResult). */
struct ReferenceTileResult
{
    uint64_t cycles = 0;
    uint64_t steps = 0;
};

/**
 * Seed-parity tile walk: R x C ReferenceColumns, serial per-step loop
 * with the bounded-run-ahead recurrence. @p a / @p b are flat operand
 * streams, step s at a + s * cols * lanes and b + s * rows * lanes.
 */
class ReferenceTile
{
  public:
    ReferenceTile(const PeConfig &pe, int rows, int cols,
                  int buffer_depth);

    ReferenceTileResult run(const BFloat16 *a, const BFloat16 *b,
                            size_t steps);

    float output(int r, int c) const;
    void resetAccumulators();
    PeStats aggregateStats() const;

  private:
    PeConfig pe_;
    int rows_, cols_, depth_;
    std::vector<ReferenceColumn> columns_;
};

} // namespace fpraker

#endif // FPRAKER_SIM_REFERENCE_COLUMN_H
