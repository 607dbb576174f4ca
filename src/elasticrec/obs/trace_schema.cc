#include "elasticrec/obs/trace_schema.h"

#include <map>

namespace erec::obs {

std::vector<std::string>
validateTraceSchema(const std::vector<SpanEvent> &events)
{
    std::vector<std::string> errors;
    // Ordered map: violations come back in trace-id order.
    std::map<std::uint64_t, std::vector<const SpanEvent *>> by_trace;
    for (const SpanEvent &e : events)
        by_trace[e.traceId].push_back(&e);

    for (const auto &[trace_id, trace] : by_trace) {
        const auto fail = [&errors, id = trace_id](const std::string &what) {
            errors.push_back("trace " + std::to_string(id) + ": " + what);
        };
        const auto label = [](const SpanEvent &e) {
            return (e.kind == EventKind::Link ? "link '" : "span '") +
                   spanName(e.name) + "'";
        };
        if (trace_id == 0)
            fail("events without a trace id");

        std::map<std::uint64_t, const SpanEvent *> by_id;
        for (const SpanEvent *e : trace) {
            if (e->kind != EventKind::Span)
                continue;
            if (e->spanId == 0)
                fail(label(*e) + " has no span id");
            else if (!by_id.emplace(e->spanId, e).second)
                fail("duplicate span id " + std::to_string(e->spanId));
            const bool open_root = e->spanId == kRootSpanId &&
                                   e->parentId == 0 &&
                                   e->endUs == kOpenSpanEnd;
            if (e->endUs < e->startUs && !open_root)
                fail(label(*e) + " ends before it starts");
        }

        const auto root_it = by_id.find(kRootSpanId);
        const SpanEvent *closed_root =
            root_it != by_id.end() &&
                    root_it->second->endUs != kOpenSpanEnd
                ? root_it->second
                : nullptr;
        for (const SpanEvent *e : trace) {
            if (e->kind == EventKind::Link) {
                if (e->arg == 0)
                    fail(label(*e) + " names no member trace");
                if (by_id.count(e->spanId) == 0)
                    fail(label(*e) + " hangs off missing span " +
                         std::to_string(e->spanId));
                continue;
            }
            if (e->parentId != 0) {
                const auto parent = by_id.find(e->parentId);
                if (parent == by_id.end())
                    fail(label(*e) + " links to missing parent " +
                         std::to_string(e->parentId));
                else if (e->endUs >= e->startUs &&
                         parent->second->startUs > e->endUs)
                    fail(label(*e) + " completes before its parent " +
                         label(*parent->second) + " starts");
            }
            if (closed_root != nullptr && e->endUs > closed_root->endUs)
                fail(label(*e) + " outlives its root span");
        }
    }
    return errors;
}

} // namespace erec::obs
