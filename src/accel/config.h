/**
 * @file
 * Accelerator configurations (paper Table II).
 *
 * Both machines are built from 8x8-PE tiles whose PEs process 8 MAC
 * lanes. Under the iso-compute-area constraint (an FPRaker tile is 0.22x
 * the baseline tile post-layout), the baseline deploys 8 tiles (4096
 * bfloat16 MACs/cycle) and FPRaker deploys 36.
 */

#ifndef FPRAKER_ACCEL_CONFIG_H
#define FPRAKER_ACCEL_CONFIG_H

#include <cstdint>

#include "memory/dram.h"
#include "memory/global_buffer.h"
#include "tile/tile.h"

namespace fpraker {

/** Full accelerator configuration. */
struct AcceleratorConfig
{
    TileConfig tile;       //!< FPRaker tile parameters.
    int fprTiles = 36;     //!< FPRaker tile count (iso-compute-area).
    TileConfig baselineTile; //!< Baseline tile geometry (always 8x8).
    int baselineTiles = 8; //!< Baseline tile count.
    GlobalBufferConfig globalBuffer;
    DramConfig dram;
    bool useBdc = true; //!< Exponent base-delta compression off-chip.

    /**
     * Training minibatch size used to amortize off-chip weight traffic
     * for convolution layers (whose GEMM M covers one sample): weights
     * are fetched once per batch and reused across its samples. FC and
     * attention layers already fold the batch into M.
     */
    int convWeightBatch = 32;

    /**
     * Global-buffer capacity available to stash forward activations
     * for the backward pass. Models whose total activation footprint
     * fits never spill the stash to DRAM; larger models write it out
     * during the forward pass and read it back for the weight-gradient
     * computation.
     */
    uint64_t actStashBytes = 24ull << 20;

    /**
     * Capacity available to the transient tensors flowing between
     * adjacent layers (an output consumed by the next layer, a
     * gradient consumed by the previous one). Tensors larger than this
     * spill even between adjacent layers.
     */
    uint64_t gbTransientBytes = 12ull << 20;

    /**
     * Choose the serial operand per layer and op (an FPRaker
     * contribution; the Bit-Pragmatic comparison PE always serializes
     * the first operand).
     */
    bool autoSerialSide = true;

    /**
     * Adjacent tile steps served from the 2 KB per-tile scratchpads
     * (Table II) per global-buffer fetch: operand blocks are reused
     * across neighbouring M/N tiles, dividing GB traffic.
     */
    int scratchpadReuse = 8;

    /** Sampling: tile steps simulated per layer-op (scaled up after). */
    int sampleSteps = 192;
    uint64_t seed = 0xf9a4e5;

    /**
     * Burst memoization (sim/sim_memo.h): phaseConfig hands this
     * machine's phase samples SimMemo::global(), so a generator-backed
     * burst already simulated under the same plan is served from it.
     * Results are bit-identical either way (FPRAKER_MEMO=off proves
     * it); false simulates every burst, e.g. for timing comparisons.
     */
    bool memoize = true;

    /** Paper Table II values. */
    static AcceleratorConfig paperDefault();

    /** MACs per cycle of the bit-parallel baseline. */
    int
    baselineMacsPerCycle() const
    {
        return baselineTiles * tile.rows * tile.cols * tile.pe.lanes;
    }
};

} // namespace fpraker

#endif // FPRAKER_ACCEL_CONFIG_H
