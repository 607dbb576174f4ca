#include "elasticrec/obs/perfetto.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "elasticrec/common/error.h"
#include "elasticrec/common/json.h"

namespace erec::obs {

namespace {

/** One rendered event line, keyed (ts, tid, emission order). */
using EventLine =
    std::tuple<std::int64_t, std::uint64_t, std::size_t, std::string>;

void
emitLines(std::ostream &os, std::vector<EventLine> lines)
{
    std::sort(lines.begin(), lines.end());
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < lines.size(); ++i)
        os << std::get<3>(lines[i]) << (i + 1 < lines.size() ? ",\n" : "\n");
    os << "]}\n";
}

} // namespace

void
writePerfettoJson(std::ostream &os, const std::vector<SpanEvent> &events)
{
    std::vector<EventLine> lines;
    std::uint64_t flow_id = 0;
    const auto add = [&](std::int64_t ts, std::uint64_t tid,
                         std::string json) {
        lines.emplace_back(ts, tid, lines.size(), std::move(json));
    };
    for (const SpanEvent &e : events) {
        const bool batch = (e.traceId & kBatchTraceBit) != 0;
        const std::uint64_t tid = e.traceId & ~kBatchTraceBit;
        // Batch traces live in a separate "process" track group so
        // per-query tracks stay readable.
        const int pid = batch ? 2 : 1;
        const std::string name = jsonEscape(spanName(e.name));
        std::ostringstream oss;
        if (e.kind == EventKind::Span) {
            if (e.endUs < e.startUs)
                continue; // Open root: no duration to draw.
            oss << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"ts\":"
                << e.startUs << ",\"dur\":" << (e.endUs - e.startUs)
                << ",\"pid\":" << pid << ",\"tid\":" << tid
                << ",\"args\":{\"span_id\":" << e.spanId
                << ",\"parent_id\":" << e.parentId << ",\"arg\":" << e.arg
                << "}}";
            add(e.startUs, tid, oss.str());
            continue;
        }
        // Link: a flow arrow from the batch span ("s") to the member
        // query's root track ("f"). Both halves share cat+id+name.
        const std::uint64_t id = ++flow_id;
        const std::uint64_t member_tid = e.arg & ~kBatchTraceBit;
        oss << "{\"name\":\"" << name
            << "\",\"ph\":\"s\",\"cat\":\"batch\",\"id\":" << id
            << ",\"ts\":" << e.startUs << ",\"pid\":" << pid
            << ",\"tid\":" << tid << "}";
        add(e.startUs, tid, oss.str());
        std::ostringstream finish;
        finish << "{\"name\":\"" << name
               << "\",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"batch\","
               << "\"id\":" << id << ",\"ts\":" << e.endUs
               << ",\"pid\":1,\"tid\":" << member_tid << "}";
        add(e.endUs, member_tid, finish.str());
    }
    emitLines(os, std::move(lines));
}

std::vector<std::string>
validatePerfettoJson(const std::string &text)
{
    JsonValue doc;
    try {
        doc = parseJson(text);
        if (doc.object.size() != 1 ||
            doc.at("traceEvents").kind != JsonValue::Kind::Array)
            doc.fail("not an erec_trace/v2 perfetto file: expected a "
                     "{\"traceEvents\":[ ... ]} document");
    } catch (const ConfigError &e) {
        return {e.what()};
    }
    const std::vector<JsonValue> &events = doc.at("traceEvents").array;

    std::vector<std::string> errors;
    std::int64_t prev_ts = -1;
    // Flow id -> (start events, finish events).
    std::map<std::int64_t, std::pair<int, int>> flows;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue &event = events[i];
        const std::string where = "event " + std::to_string(i + 1);
        try {
            (void)event.at("name").asString();
            const std::string &ph = event.at("ph").asString();
            const std::int64_t ts = event.at("ts").asInt64();
            (void)event.at("pid").asInt64();
            (void)event.at("tid").asInt64();
            if (ts < prev_ts)
                errors.push_back(where + ": timestamp " +
                                 std::to_string(ts) +
                                 " goes backwards (previous " +
                                 std::to_string(prev_ts) + ")");
            prev_ts = ts;
            if (ph == "X") {
                if (event.at("dur").asInt64() < 0)
                    errors.push_back(where +
                                     ": complete event needs dur >= 0");
            } else if (ph == "s" || ph == "f") {
                (void)event.at("cat").asString();
                auto &[starts, finishes] = flows[event.at("id").asInt64()];
                ++(ph == "s" ? starts : finishes);
            } else {
                errors.push_back(where + ": unsupported phase '" + ph +
                                 "'");
            }
        } catch (const ConfigError &e) {
            errors.push_back(where + ": " + e.what());
        }
    }
    for (const auto &[id, ends] : flows)
        if ((ends.first == 0) != (ends.second == 0))
            errors.push_back("flow " + std::to_string(id) + ": link " +
                             (ends.first == 0 ? "finish has no start"
                                              : "start has no finish") +
                             " (unresolved batch->member link)");
    return errors;
}

} // namespace erec::obs
