/**
 * @file
 * Pooled per-burst tile scratch.
 *
 * Phase sampling (accel/phase_runner) decomposes into independent
 * bursts, each of which used to construct a fresh Tile plus operand
 * slab buffers — for tiny sample budgets the construction dominated
 * the simulated work (the ROADMAP-flagged allocation churn). A
 * TilePool keeps finished burst scratch on a freelist instead: a
 * worker borrows a Scratch (tile + step views), runs its burst, and
 * the RAII lease returns it for the next burst to reuse. The operand
 * slabs belong to the burst, not the tile: the machines of one phase
 * group read the same slabs (accel/phase_runner.h).
 *
 * Reuse is bit-identical to fresh construction: Tile::resetForReuse
 * restores the only state that survives a run (accumulators and
 * statistics), and every remaining per-set field is rebuilt by
 * beginSet. tests/test_fastpath.cpp pins pooled phase runs against
 * fresh-construction runs at 1/2/8 threads.
 *
 * The pool is thread-safe (one mutex around the freelist; a borrow is
 * one pop per burst, far off the simulation's critical path) and
 * unbounded — it can never hold more Scratches than the peak number
 * of concurrent bursts, which the engine caps at its thread count.
 */

#ifndef FPRAKER_SIM_TILE_POOL_H
#define FPRAKER_SIM_TILE_POOL_H

#include <memory>
#include <mutex>
#include <vector>

#include "tile/tile.h"

namespace fpraker {

/** Freelist of reusable per-burst tile scratch for one TileConfig. */
class TilePool
{
  public:
    /** One burst's working set: the tile and its step views. */
    struct Scratch
    {
        explicit Scratch(const TileConfig &cfg) : tile(cfg) {}

        Tile tile;
        std::vector<TileStepView> views;  //!< One view per step.
    };

    /** Move-only RAII borrow; returns the scratch on destruction. */
    class Lease
    {
      public:
        Lease(TilePool *pool, std::unique_ptr<Scratch> scratch)
            : pool_(pool), scratch_(std::move(scratch))
        {}
        ~Lease()
        {
            if (scratch_)
                pool_->release(std::move(scratch_));
        }
        Lease(Lease &&) = default;
        Lease &operator=(Lease &&) = delete;
        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        Scratch *operator->() { return scratch_.get(); }
        Scratch &operator*() { return *scratch_; }

      private:
        TilePool *pool_;
        std::unique_ptr<Scratch> scratch_;
    };

    explicit TilePool(const TileConfig &cfg) : cfg_(cfg) {}

    /**
     * Borrow a Scratch, reset to like-new tile state. The view
     * buffer keeps its capacity (callers resize to their burst).
     */
    Lease acquire();

    /** Scratches currently parked on the freelist (tests/metrics). */
    size_t idle() const;

    /** Scratches ever constructed (tests/metrics). */
    size_t built() const { return built_; }

    const TileConfig &config() const { return cfg_; }

  private:
    friend class Lease;
    void release(std::unique_ptr<Scratch> scratch);

    TileConfig cfg_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Scratch>> free_;
    size_t built_ = 0;
};

} // namespace fpraker

#endif // FPRAKER_SIM_TILE_POOL_H
