#pragma once

/**
 * @file
 * The run-summary header of an `erec_report` run: the first lines of
 * each run's report, read from its Prometheus dump.
 *
 * A simulator dump (it carries `erec_arrivals_total`) is summarized
 * from the frontend deployment's latency and SLA series. A native
 * serving dump (`serving_throughput`, `quickstart`) has no simulator
 * series; it is summarized from the functional frontend, shard and
 * dispatcher/executor gauges instead.
 */

#include <ostream>

#include "tools/promcheck/prom_parser.h"

namespace erec::tools {

/** Write the summary lines of one run, followed by a blank line. */
void writeRunSummary(std::ostream &os, const PromParseResult &prom);

} // namespace erec::tools
