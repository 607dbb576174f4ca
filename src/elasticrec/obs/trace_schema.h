#pragma once

/**
 * @file
 * The `erec_trace/v2` schema: the contract every exported
 * `*_traces.jsonl` artifact must satisfy, validated by promcheck in
 * the CI smoke stage so a broken exporter (or a causality bug in span
 * id assignment) fails the build instead of silently producing
 * garbage traces.
 *
 * A v2 file holds one SpanEvent per line (writeTraceJsonLines), spans
 * and fan-in links of any number of traces in any order. Per trace:
 *  - every event carries non-zero trace and span ids;
 *  - span ids are unique within the trace;
 *  - every span closes after it opens, except the root, which may be
 *    open (end == kOpenSpanEnd): a lost or in-flight query;
 *  - every non-zero parent id resolves to a span in the same trace,
 *    and a parent never starts after its child ends;
 *  - a closed root covers every span end of its trace;
 *  - a link names a member trace and hangs off a span of its own
 *    trace.
 */

#include <string>
#include <vector>

#include "elasticrec/obs/flight_recorder.h"

namespace erec::obs {

/** Schema identifier promcheck reports against. */
inline constexpr const char *kTraceSchemaVersion = "erec_trace/v2";

/** Validate events; returns one message per violation (empty = ok). */
std::vector<std::string> validateTraceSchema(
    const std::vector<SpanEvent> &events);

} // namespace erec::obs
