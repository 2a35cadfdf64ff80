#include "sim/sim_memo.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/parse.h"
#include "obs/metrics.h"

namespace fpraker {

namespace {

FPRAKER_METRIC_COUNTER(g_hits, "memo.hits", "sim memo lookup hits");
FPRAKER_METRIC_COUNTER(g_misses, "memo.misses",
                       "sim memo lookup misses");
FPRAKER_METRIC_COUNTER(g_insertions, "memo.insertions",
                       "sim memo entries inserted");
FPRAKER_METRIC_COUNTER(g_evictions, "memo.evictions",
                       "sim memo entries evicted for budget");
FPRAKER_METRIC_GAUGE(g_bytes, "memo.bytes",
                     "sim memo resident bytes (keys+values+overhead)");
FPRAKER_METRIC_GAUGE(g_entries, "memo.entries",
                     "sim memo resident entries");

/**
 * Stripe count for a budget: enough stripes to keep lock contention
 * off the simulation's critical path, but never so many that a
 * stripe's budget share drops below 256 KiB — a tiny test budget runs
 * single-striped so eviction still admits entries instead of
 * rejecting everything.
 */
size_t
stripesFor(size_t budget)
{
    size_t n = budget / (256u << 10);
    if (n < 1)
        n = 1;
    if (n > 16)
        n = 16;
    return n;
}

} // namespace

SimMemo::SimMemo(size_t budgetBytes)
    : budget_(budgetBytes), stripes_(stripesFor(budgetBytes))
{
    stripeBudget_ = budget_ / stripes_.size();
}

SimMemo::Stripe &
SimMemo::stripeOf(uint64_t hash)
{
    // The low bits feed the map's bucket index; pick stripe from the
    // high bits so the two partitions stay independent.
    return stripes_[(hash >> 48) % stripes_.size()];
}

bool
SimMemo::lookup(uint64_t hash, const void *key, size_t keyLen,
                void *value, size_t valueLen)
{
    Stripe &s = stripeOf(hash);
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        auto it = s.index.find(hash);
        if (it != s.index.end()) {
            Entry &e = *it->second;
            // Exact by construction: the full key bytes must match
            // (a 64-bit collision is a miss, never a wrong value).
            if (e.key.size() == keyLen && e.value.size() == valueLen &&
                std::memcmp(e.key.data(), key, keyLen) == 0) {
                std::memcpy(value, e.value.data(), valueLen);
                s.lru.splice(s.lru.begin(), s.lru, it->second);
                hits_.fetch_add(1, std::memory_order_relaxed);
                g_hits.add();
                return true;
            }
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    g_misses.add();
    return false;
}

void
SimMemo::insert(uint64_t hash, const void *key, size_t keyLen,
                const void *value, size_t valueLen)
{
    const uint64_t cost = keyLen + valueLen + kEntryOverhead;
    if (cost > stripeBudget_)
        return; // Larger than a whole stripe share: never cacheable.

    Stripe &s = stripeOf(hash);
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.index.count(hash))
        return; // Present entry already verified usable (or missing).

    while (s.bytes + cost > stripeBudget_ && !s.lru.empty()) {
        Entry &tail = s.lru.back();
        const uint64_t freed =
            tail.key.size() + tail.value.size() + kEntryOverhead;
        s.bytes -= freed;
        s.index.erase(tail.hash);
        s.lru.pop_back();
        s.evictions += 1;
        g_evictions.add();
        g_bytes.add(-static_cast<int64_t>(freed));
        g_entries.add(-1);
    }

    Entry e;
    e.hash = hash;
    const unsigned char *kp = static_cast<const unsigned char *>(key);
    const unsigned char *vp = static_cast<const unsigned char *>(value);
    e.key.assign(kp, kp + keyLen);
    e.value.assign(vp, vp + valueLen);
    s.lru.push_front(std::move(e));
    s.index.emplace(hash, s.lru.begin());
    s.bytes += cost;
    s.insertions += 1;
    g_insertions.add();
    g_bytes.add(static_cast<int64_t>(cost));
    g_entries.add(1);
}

SimMemo::Stats
SimMemo::stats() const
{
    Stats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    for (const Stripe &s : stripes_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        st.insertions += s.insertions;
        st.evictions += s.evictions;
        st.bytes += s.bytes;
        st.entries += s.lru.size();
    }
    return st;
}

uint64_t
SimMemo::bytesHeld() const
{
    uint64_t bytes = 0;
    for (const Stripe &s : stripes_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        bytes += s.bytes;
    }
    return bytes;
}

uint64_t
SimMemo::envBudget()
{
    const char *env = std::getenv("FPRAKER_MEMO");
    if (!env || !*env)
        return kDefaultBudget;
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0)
        return 0;
    // Loud-fail like FPRAKER_SAMPLE_STEPS: a typo must never silently change
    // what the run measures.
    uint64_t bytes = 0;
    fatal_if(!parsePositive(env, kMaxBudget, &bytes),
             "FPRAKER_MEMO=%s: expected 'off', '0' or a decimal byte "
             "budget in [1, 2^40]",
             env);
    return bytes;
}

SimMemo *
SimMemo::global()
{
    static SimMemo *g = []() -> SimMemo * {
        const uint64_t bytes = envBudget();
        return bytes ? new SimMemo(static_cast<size_t>(bytes)) : nullptr;
    }();
    return g;
}

} // namespace fpraker
