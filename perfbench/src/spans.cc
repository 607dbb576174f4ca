#include "spans.h"

#include <algorithm>
#include <ostream>

namespace perfbench {

std::uint32_t
SpanLog::add(const char *name, std::uint64_t query, std::uint32_t parent,
             std::int64_t start_ns, std::int64_t end_ns)
{
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({name, query, id, parent, start_ns, end_ns});
    return id;
}

std::int64_t
selfTimeNs(std::int64_t start, std::int64_t end,
           std::vector<std::pair<std::int64_t, std::int64_t>> children)
{
    std::sort(children.begin(), children.end());
    std::int64_t covered = 0;
    std::int64_t cursor = start;
    for (const auto &[b, e] : children) {
        const std::int64_t lo = std::max(b, cursor);
        const std::int64_t hi = std::min(e, end);
        if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
        }
    }
    return (end - start) - covered;
}

std::vector<std::int64_t>
SpanLog::selfTimesNs() const
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent != 0)
            kids[s.parent - 1].emplace_back(s.startNs, s.endNs);
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = selfTimeNs(spans_[i].startNs, spans_[i].endNs,
                             std::move(kids[i]));
    return self;
}

void
SpanLog::writeJsonl(std::ostream &out, std::int64_t origin_ns,
                    std::uint64_t query_stride) const
{
    const auto self = selfTimesNs();
    const auto us = [&](std::int64_t ns) {
        return static_cast<double>(ns - origin_ns) * 1e-3;
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (query_stride > 1 && s.query % query_stride != 0)
            continue;
        out << "{\"query\":" << s.query << ",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
            << "\",\"start_us\":" << us(s.startNs)
            << ",\"end_us\":" << us(s.endNs)
            << ",\"self_us\":" << static_cast<double>(self[i]) * 1e-3
            << "}\n";
    }
}

} // namespace perfbench
