#include "common/parse.h"

#include <cstddef>
#include <utility>

namespace fpraker {

bool
parsePositive(std::string_view text, uint64_t max, uint64_t *out)
{
    if (text.empty())
        return false;
    uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        // Checked before the multiply, so no max can overflow v.
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        if (digit > max || v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    if (v < 1)
        return false;
    *out = v;
    return true;
}

bool
parsePositiveInt(std::string_view text, int *out)
{
    uint64_t v;
    if (!parsePositive(text, kMaxIntArg, &v))
        return false;
    *out = static_cast<int>(v);
    return true;
}

bool
parsePositiveList(std::string_view csv, std::vector<int> *out)
{
    std::vector<int> values;
    for (;;) {
        const size_t comma = csv.find(',');
        int v;
        if (!parsePositiveInt(csv.substr(0, comma), &v))
            return false;
        values.push_back(v);
        if (comma == std::string_view::npos)
            break;
        csv.remove_prefix(comma + 1);
    }
    *out = std::move(values);
    return true;
}

} // namespace fpraker
