#include "serve/fault_injection.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"

namespace fpraker {
namespace serve {

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(const std::string &point, int64_t param,
                   uint64_t count)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Arming &a = points_[point];
    if (a.remaining == 0 && count > 0)
        armedPoints_.fetch_add(1, std::memory_order_relaxed);
    else if (a.remaining > 0 && count == 0)
        armedPoints_.fetch_sub(1, std::memory_order_relaxed);
    a.param = param;
    a.remaining = count;
}

bool
FaultInjector::configure(const std::string &spec, std::string *error)
{
    // Parse into a staging list first so a malformed entry arms
    // nothing.
    struct Parsed
    {
        std::string point;
        int64_t param;
        uint64_t count;
    };
    std::vector<Parsed> staged;
    size_t at = 0;
    while (at < spec.size()) {
        size_t end = spec.find(',', at);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(at, end - at);
        at = end + 1;
        if (entry.empty())
            continue;
        size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0) {
            if (error)
                *error = "fault entry '" + entry +
                         "' is not point=param[:count]";
            return false;
        }
        Parsed p;
        p.point = entry.substr(0, eq);
        p.count = 1;
        std::string value = entry.substr(eq + 1);
        size_t colon = value.find(':');
        std::string countText;
        if (colon != std::string::npos) {
            countText = value.substr(colon + 1);
            value = value.substr(0, colon);
        }
        char *rest = nullptr;
        p.param = std::strtoll(value.c_str(), &rest, 10);
        if (value.empty() || (rest && *rest)) {
            if (error)
                *error = "fault '" + p.point +
                         "': param '" + value + "' is not an integer";
            return false;
        }
        if (!countText.empty() &&
            !parsePositive(countText, ~0ull, &p.count)) {
            if (error)
                *error = "fault '" + p.point + "': count '" +
                         countText + "' is not a positive integer";
            return false;
        }
        staged.push_back(std::move(p));
    }
    for (const Parsed &p : staged)
        arm(p.point, p.param, p.count);
    return true;
}

void
FaultInjector::configureFromEnv()
{
    const char *env = std::getenv("FPRAKER_FAULTS");
    if (!env || !*env)
        return;
    std::string error;
    panic_if(!configure(env, &error), "FPRAKER_FAULTS: %s",
             error.c_str());
}

void
FaultInjector::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    points_.clear();
    armedPoints_.store(0, std::memory_order_relaxed);
}

bool
FaultInjector::fires(const char *point, int64_t *param)
{
    // Production hot path: nothing armed, one atomic load.
    if (armedPoints_.load(std::memory_order_relaxed) == 0)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(point);
    if (it == points_.end() || it->second.remaining == 0)
        return false;
    --it->second.remaining;
    ++it->second.fired;
    if (it->second.remaining == 0)
        armedPoints_.fetch_sub(1, std::memory_order_relaxed);
    if (param)
        *param = it->second.param;
    return true;
}

uint64_t
FaultInjector::fired(const std::string &point) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = points_.find(point);
    return it == points_.end() ? 0 : it->second.fired;
}

void
faultSleepMs(int64_t ms)
{
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace serve
} // namespace fpraker
