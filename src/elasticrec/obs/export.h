#pragma once

/**
 * @file
 * Exporters for the observability layer.
 *
 *  - Prometheus text exposition format (the format the paper's metrics
 *    server serves to its scraper): HELP/TYPE headers, escaped label
 *    values, cumulative `_bucket{le=...}` histogram series plus `_sum`
 *    and `_count`.
 *  - erec_trace/v2 JSON lines: one SpanEvent (span or fan-in link) per
 *    line, in the order given, with a strict reader so tooling (and
 *    tests) can round-trip what the writer emits:
 *
 *      {"trace_id":3,"span_id":1,"parent_id":0,"kind":"span",
 *       "name":"query","start_us":200,"end_us":-1,"arg":0}
 *
 *    (one line in the file; end_us -1 is an open root, see
 *    kOpenSpanEnd). The same format carries simulator traces and the
 *    native serving stack's query and batch traces.
 *
 * Output ordering is deterministic (families and children are stored
 * in ordered maps), so two identical runs export byte-identical text.
 */

#include <iosfwd>
#include <string>
#include <vector>

#include "elasticrec/obs/metric.h"
#include "elasticrec/obs/slo.h"
#include "elasticrec/obs/flight_recorder.h"

namespace erec::obs {

/** Escape a label value for the text format (backslash, quote, \n). */
std::string escapeLabelValue(const std::string &value);

/** Render the whole registry in Prometheus text exposition format. */
void writePrometheusText(std::ostream &os, const Registry &registry);
std::string toPrometheusText(const Registry &registry);

/** Write events as erec_trace/v2 JSON lines. */
void writeTraceJsonLines(std::ostream &os,
                         const std::vector<SpanEvent> &events);

/**
 * Parse erec_trace/v2 JSON lines as written by writeTraceJsonLines,
 * interning every span name. Each line goes through parseJson and
 * must hold the eight keys exactly once, ids as exact unsigned and
 * times as signed 64-bit integers. Raises ConfigError on malformed
 * input.
 */
std::vector<SpanEvent> readTraceJsonLines(const std::string &text);

/** Optional side artifacts bundled with a metrics dump. */
struct ExportArtifacts
{
    /** Sampled trace events -> `<stem>_traces.jsonl` plus
     *  `<stem>_perfetto.json` (null: skip). */
    const std::vector<SpanEvent> *spans = nullptr;
    /** Alert transitions -> `<stem>_alerts.jsonl` (null: skip). */
    const std::vector<AlertEvent> *alerts = nullptr;
};

/**
 * Dump one run's exports into a directory: `<dir>/<stem>.prom` plus
 * the artifact files selected in `artifacts`. The directory is created
 * if needed. This is the backend of the bench binaries'
 * `--metrics-out DIR` flag.
 */
void writeMetricsFiles(const std::string &dir, const std::string &stem,
                       const Registry &registry,
                       const ExportArtifacts &artifacts = {});

} // namespace erec::obs
