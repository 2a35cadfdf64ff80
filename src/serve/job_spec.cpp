#include "serve/job_spec.h"

#include <algorithm>

#include "api/session.h"
#include "common/fnv.h"

namespace fpraker {
namespace serve {

namespace {

std::vector<std::pair<std::string, std::string>>
sortedOptions(const JobSpec &spec)
{
    auto sorted = spec.options;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    return sorted;
}

/** Length-prefixed string mix: immune to separator characters
 *  appearing inside values ({"a","b|c"} never collides with
 *  {"a|b","c"}). */
void
addField(Fnv64 &h, const std::string &s)
{
    h.add(static_cast<uint64_t>(s.size()));
    h.add(s);
}

} // namespace

int
JobSpec::resolvedSampleSteps() const
{
    // Mirror Session::sampleSteps' env fallback: what the job will
    // actually simulate with. Folding the RESOLVED value into the
    // key makes disk spills airtight across daemons whose
    // environments differ.
    return sampleSteps > 0 ? sampleSteps : api::envSampleSteps();
}

std::string
JobSpec::canonical() const
{
    std::string out = "experiment=" + experiment;
    out += "|sample_steps=" + std::to_string(resolvedSampleSteps());
    for (const auto &[key, value] : sortedOptions(*this))
        out += "|opt:" + key + "=" + value;
    return out;
}

uint64_t
JobSpec::cacheKey() const
{
    // Structural hash, field by field with length prefixes — NOT a
    // hash of canonical(), whose joined form would be ambiguous for
    // option values containing the join characters.
    Fnv64 h;
    addField(h, kServeCacheEpoch);
    addField(h, "fpraker-result-v1");
    addField(h, experiment);
    h.add(static_cast<uint64_t>(resolvedSampleSteps()));
    const auto sorted = sortedOptions(*this);
    h.add(static_cast<uint64_t>(sorted.size()));
    for (const auto &[key, value] : sorted) {
        addField(h, key);
        addField(h, value);
    }
    return h.value();
}

api::JsonValue
JobSpec::toJson() const
{
    api::JsonValue spec = api::JsonValue::object();
    spec.set("experiment", experiment);
    if (sampleSteps > 0)
        spec.set("sample_steps", sampleSteps);
    if (!options.empty()) {
        api::JsonValue opts = api::JsonValue::object();
        for (const auto &[key, value] : options)
            opts.set(key, value);
        spec.set("options", std::move(opts));
    }
    if (priority != 0)
        spec.set("priority", priority);
    if (deadlineMs > 0)
        spec.set("deadline_ms", deadlineMs);
    return spec;
}

namespace {

bool
readPositiveInt(const api::JsonValue &v, const char *key, int *out,
                std::string *error)
{
    if (v.kind() != api::JsonValue::Kind::Int || v.intValue() < 1 ||
        v.intValue() > 1000000000) {
        *error = std::string("spec.") + key +
                 " must be an integer in [1, 1e9]";
        return false;
    }
    *out = static_cast<int>(v.intValue());
    return true;
}

} // namespace

bool
JobSpec::fromJson(const api::JsonValue &v, JobSpec *out,
                  std::string *error)
{
    if (!v.isObject()) {
        *error = "spec must be an object";
        return false;
    }
    JobSpec spec;
    for (const auto &[key, value] : v.entries()) {
        if (key == "experiment") {
            if (value.kind() != api::JsonValue::Kind::String ||
                value.str().empty()) {
                *error = "spec.experiment must be a non-empty string";
                return false;
            }
            spec.experiment = value.str();
        } else if (key == "sample_steps") {
            if (!readPositiveInt(value, "sample_steps",
                                 &spec.sampleSteps, error))
                return false;
        } else if (key == "priority") {
            // Bounded so queue ordering can safely negate it.
            if (value.kind() != api::JsonValue::Kind::Int ||
                value.intValue() < -1000000000 ||
                value.intValue() > 1000000000) {
                *error = "spec.priority must be an integer in "
                         "[-1e9, 1e9]";
                return false;
            }
            spec.priority = static_cast<int>(value.intValue());
        } else if (key == "deadline_ms") {
            if (!readPositiveInt(value, "deadline_ms",
                                 &spec.deadlineMs, error))
                return false;
        } else if (key == "options") {
            if (!value.isObject()) {
                *error = "spec.options must be an object of strings";
                return false;
            }
            for (const auto &[okey, ovalue] : value.entries()) {
                if (ovalue.kind() != api::JsonValue::Kind::String) {
                    *error = "spec.options." + okey +
                             " must be a string";
                    return false;
                }
                if (!api::checkOption(okey, ovalue.str(), error)) {
                    *error = "spec.options." + *error;
                    return false;
                }
                spec.options.emplace_back(okey, ovalue.str());
            }
        } else {
            *error = "unknown spec key '" + key + "'";
            return false;
        }
    }
    if (spec.experiment.empty()) {
        *error = "spec.experiment is required";
        return false;
    }
    *out = std::move(spec);
    return true;
}

} // namespace serve
} // namespace fpraker
