/**
 * @file
 * Content-addressed simulation memoization of phase-sample bursts.
 *
 * A generator-backed burst is a pure function of its plan — the tile
 * configuration, the phase's seed, geometry, sides and value profiles,
 * and the burst's index and length (accel/phase_runner.cpp): the
 * accumulators reset between output blocks, and phase runs consume
 * only a burst's cycles and statistics, never the tile's float
 * outputs. Re-sampled (layer, op, progress) phases, ablation grids
 * re-simulating identical phases, and larger sample budgets of the
 * same layer therefore repeat the exact same bursts. SimMemo turns
 * that repetition into lookups: a thread-safe, striped-lock,
 * byte-budgeted LRU keyed by FNV-1a over the full key bytes.
 *
 * Exact by construction: every entry stores its complete key bytes and
 * a lookup memcmp-verifies them, so a hash collision is a miss, never
 * a wrong value — memo-on and memo-off runs are byte-identical
 * (tests/test_memo.cpp fuzzes the parity at 1/2/8 threads and under
 * eviction).
 *
 * The process-wide instance (global()) is shared by every accelerator
 * and SweepRunner job; the FPRAKER_MEMO environment knob sizes it
 * (byte budget) or disables it ("off"/"0" — fatal on anything else,
 * like FPRAKER_SAMPLE_STEPS). Hit/miss counts are telemetry (the memo.*
 * metrics and stats()), never part of a fingerprint.
 */

#ifndef FPRAKER_SIM_SIM_MEMO_H
#define FPRAKER_SIM_SIM_MEMO_H

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace fpraker {

/** Thread-safe content-addressed LRU of simulation results. */
class SimMemo
{
  public:
    /** Counters (monotonic; bytes/entries are the current residency). */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;     //!< Lookups that found nothing usable.
        uint64_t insertions = 0;
        uint64_t evictions = 0;  //!< Entries displaced by the budget.
        uint64_t bytes = 0;      //!< Resident key+value+overhead bytes.
        uint64_t entries = 0;
    };

    /** @param budgetBytes total byte budget across all stripes. */
    explicit SimMemo(size_t budgetBytes);

    SimMemo(const SimMemo &) = delete;
    SimMemo &operator=(const SimMemo &) = delete;

    /**
     * Look up @p hash (FNV-1a over @p key). Hits only when the stored
     * key bytes and value size match exactly; copies the value into
     * @p value and refreshes LRU recency. Counts a hit or miss.
     */
    bool lookup(uint64_t hash, const void *key, size_t keyLen,
                void *value, size_t valueLen);

    /**
     * Insert a (key, value) pair, evicting least-recently-used entries
     * until the stripe fits its budget share. An entry larger than the
     * share, or a hash already present, is skipped (the present entry
     * was verified usable or will keep missing — either way correct).
     */
    void insert(uint64_t hash, const void *key, size_t keyLen,
                const void *value, size_t valueLen);

    Stats stats() const;
    uint64_t bytesHeld() const;
    size_t budget() const { return budget_; }

    /** FPRAKER_MEMO's default budget (the variable unset or empty). */
    static constexpr uint64_t kDefaultBudget = 64ull << 20;
    /** The largest budget FPRAKER_MEMO accepts (1 TiB). */
    static constexpr uint64_t kMaxBudget = 1ull << 40;

    /**
     * The budget FPRAKER_MEMO asks for: kDefaultBudget when unset or
     * empty, 0 for "off" or "0", else a positive decimal byte count
     * up to kMaxBudget; anything else ("-1", "+5", " 4096", "64M")
     * is a fatal() naming the variable. Read afresh on every call.
     */
    static uint64_t envBudget();

    /**
     * The process-wide memo, sized by envBudget() on first use
     * (nullptr for a budget of 0, so every burst simulates).
     */
    static SimMemo *global();

  private:
    struct Entry
    {
        uint64_t hash = 0;
        std::vector<unsigned char> key;
        std::vector<unsigned char> value;
    };

    /** Fixed per-entry accounting overhead (map node, list node). */
    static constexpr uint64_t kEntryOverhead = 64;

    struct Stripe
    {
        mutable std::mutex mutex;
        std::list<Entry> lru; //!< Front = most recent.
        std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
        uint64_t bytes = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
    };

    Stripe &stripeOf(uint64_t hash);

    size_t budget_;
    size_t stripeBudget_;
    std::vector<Stripe> stripes_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
};

} // namespace fpraker

#endif // FPRAKER_SIM_SIM_MEMO_H
