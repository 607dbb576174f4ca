#pragma once

/**
 * @file
 * Chrome/Perfetto trace-event JSON export ("JSON trace format",
 * loadable in ui.perfetto.dev or chrome://tracing) of SpanEvents from
 * either engine: one track per query trace, one complete "X" event
 * per closed span (an open root — a lost or in-flight query — has no
 * duration and is left out), and batch->member fan-in links as flow
 * events ("s" on the batch span, "f" on the member query's root) so
 * the UI draws the arrow from a query to the coalesced batch it
 * waited on.
 *
 * The emitter writes one event per line, globally sorted by timestamp.
 * The erec_trace/v2 perfetto profile (validatePerfettoJson) parses the
 * whole document with parseJson, then checks a `{"traceEvents":[...]}`
 * envelope, every event's string name/ph and 64-bit integer
 * ts/pid/tid (plus dur >= 0 for "X", id and cat for flows),
 * monotonic timestamps, and every flow id resolving to a matched
 * start/finish pair.
 */

#include <iosfwd>
#include <string>
#include <vector>

#include "elasticrec/obs/flight_recorder.h"

namespace erec::obs {

/** Export span and link events as Chrome trace-event JSON. */
void writePerfettoJson(std::ostream &os,
                       const std::vector<SpanEvent> &events);

/**
 * Validate text against the erec_trace/v2 perfetto profile. Returns
 * one message per violation; empty means valid. Backs promcheck's
 * handling of `*_perfetto.json` artifacts.
 */
std::vector<std::string> validatePerfettoJson(const std::string &text);

} // namespace erec::obs
