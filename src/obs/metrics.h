/**
 * @file
 * Lock-cheap metrics registry: counters, gauges, and fixed-bucket
 * latency histograms for every layer of the system (engine, memo,
 * caches, scheduler, daemon, phase runner).
 *
 * Design constraints, in order:
 *
 *  1. DETERMINISM-SAFE. Metrics are observation only — nothing here
 *     may ever feed back into simulated values, fingerprints, or
 *     cache keys. The registry therefore exposes no read-your-write
 *     API on the hot path; aggregation happens only at snapshot time.
 *  2. CHEAP WHEN IDLE, CHEAP WHEN HOT. A counter increment is one
 *     relaxed fetch_add on a cache-line-padded per-thread shard — no
 *     lock, no false sharing with other threads' shards. Idle
 *     instruments sit on the benchmark's measured path
 *     (benchmark/README.md), so their cost shows in its end-to-end
 *     figures.
 *  3. STATIC REGISTRATION. Instruments are created once by name
 *     through Registry::instance() (create-or-find, so the same name
 *     from two translation units aliases one instrument) and live for
 *     the process; the FPRAKER_METRIC_* macros bind file-local
 *     references so call sites pay pointer-chase cost only once.
 *
 * Snapshots render as ordered JSON (the daemon's `metrics` op and the
 * opt-in result-document telemetry section) or Prometheus-style text
 * exposition (`fpraker metrics --prom`). See docs/OBSERVABILITY.md
 * for the metric catalog.
 */

#ifndef FPRAKER_OBS_METRICS_H
#define FPRAKER_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/json.h"

namespace fpraker {
namespace obs {

/** Shards per sharded instrument. Threads map round-robin onto
 *  shards, so contention only appears past this many live writers. */
constexpr size_t kMetricShards = 16;

/** This thread's shard index (assigned round-robin at first use). */
size_t threadShardIndex();

/** Monotonic counter, per-thread sharded. */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        shards_[threadShardIndex() % kMetricShards].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        uint64_t sum = 0;
        for (const Shard &s : shards_)
            sum += s.v.load(std::memory_order_relaxed);
        return sum;
    }

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> v{0};
    };
    Shard shards_[kMetricShards];
};

/** Instantaneous signed value (queue depths, resident bytes). */
class Gauge
{
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void
    add(int64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/** Fixed histogram bucket bounds (upper-inclusive, ascending). */
struct Buckets
{
    std::vector<double> bounds;

    /** count bounds: start, start*factor, start*factor^2, … */
    static Buckets exponential(double start, double factor, int count);
    /** The default latency ladder: 1 µs … ~65 s in powers of 4. */
    static Buckets latency();
};

/**
 * Fixed-bucket histogram, per-thread sharded like Counter. observe()
 * is a branchless-ish linear scan over ~13 bounds plus two relaxed
 * atomics — no lock, no allocation. A value lands in the first
 * bucket whose bound is >= it (Prometheus `le` semantics); values
 * above every bound land in the implicit +Inf bucket.
 */
class Histogram
{
  public:
    explicit Histogram(Buckets buckets);

    void observe(double v);

    struct Snapshot
    {
        std::vector<double> bounds;   //!< Ascending upper bounds.
        std::vector<uint64_t> counts; //!< Per-bucket, + trailing +Inf.
        uint64_t count = 0;           //!< Total observations.
        double sum = 0;               //!< Sum of observed values.
    };
    Snapshot snapshot() const;

  private:
    struct alignas(64) Shard
    {
        std::unique_ptr<std::atomic<uint64_t>[]> buckets;
        std::atomic<uint64_t> count{0};
        //! Bit-packed double accumulated by CAS (atomic<double>
        //! fetch_add is not universally lock-free).
        std::atomic<uint64_t> sumBits{0};
    };

    std::vector<double> bounds_;
    Shard shards_[kMetricShards];
};

/**
 * The process-wide instrument registry. create-or-find by name:
 * looking up an existing name returns the same instrument (a kind
 * mismatch panics — two subsystems disagreeing about a name is a
 * bug). Names are dotted paths ("memo.hits", "sched.run_seconds");
 * the Prometheus rendering maps dots to underscores.
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name, const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &help,
                         const Buckets &buckets);

    /**
     * One ordered JSON object: {"counters": {...}, "gauges": {...},
     * "histograms": {name: {"bounds": [...], "counts": [...],
     * "count": N, "sum": S}}}. Instruments appear in registration
     * order. Zero-valued counters are included — an idle metric is
     * information, not noise.
     */
    api::JsonValue snapshotJson() const;

    /** Prometheus text exposition (HELP/TYPE + samples). */
    std::string renderProm() const;

  private:
    Registry() = default;

    enum class Kind { Counter, Gauge, Histogram };
    struct Instrument
    {
        std::string name;
        std::string help;
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Instrument &findOrCreate(const std::string &name,
                             const std::string &help, Kind kind);

    mutable std::mutex mutex_;
    //! deque-like stability: instruments are pointers, so references
    //! handed out survive later registrations.
    std::vector<std::unique_ptr<Instrument>> instruments_;
};

} // namespace obs
} // namespace fpraker

/**
 * Bind a file-local reference to a registry instrument. Use at
 * namespace scope in the instrumented .cpp:
 *
 *   FPRAKER_METRIC_COUNTER(g_hits, "memo.hits", "memo lookup hits");
 *   ... g_hits.add();
 */
#define FPRAKER_METRIC_COUNTER(var, name, help)                        \
    static ::fpraker::obs::Counter &var =                              \
        ::fpraker::obs::Registry::instance().counter(name, help)
#define FPRAKER_METRIC_GAUGE(var, name, help)                          \
    static ::fpraker::obs::Gauge &var =                                \
        ::fpraker::obs::Registry::instance().gauge(name, help)
#define FPRAKER_METRIC_HISTOGRAM(var, name, help, buckets)             \
    static ::fpraker::obs::Histogram &var =                            \
        ::fpraker::obs::Registry::instance().histogram(name, help,     \
                                                       buckets)

#endif // FPRAKER_OBS_METRICS_H
