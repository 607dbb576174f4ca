#include "tools/report/run_summary.h"

#include <map>
#include <string>

#include "elasticrec/common/table_printer.h"

namespace erec::tools {

namespace {

/**
 * The frontend deployment aggregates every query's end-to-end latency;
 * sparse shards log their completions with latency 0. The deployment
 * with the largest latency sum is therefore the frontend.
 */
std::string
frontendDeployment(const PromParseResult &prom)
{
    std::string best;
    double best_sum = -1.0;
    for (const auto &s : prom.samples) {
        if (s.name != "erec_latency_ms_sum")
            continue;
        const auto dep = s.labels.find("deployment");
        if (dep == s.labels.end())
            continue;
        if (s.value > best_sum) {
            best_sum = s.value;
            best = dep->second;
        }
    }
    return best;
}

void
writeSimSummary(std::ostream &os, const PromParseResult &prom)
{
    const std::string frontend = frontendDeployment(prom);
    const std::map<std::string, std::string> fe_labels = {
        {"deployment", frontend}};
    const double arrivals = prom.value("erec_arrivals_total");
    const double completed =
        prom.value("erec_latency_ms_count", fe_labels);
    const double violations =
        prom.value("erec_sla_violations_total", fe_labels);
    const double lost = prom.value("erec_lost_queries");
    os << "frontend deployment: " << (frontend.empty() ? "?" : frontend)
       << "\n"
       << "arrivals " << TablePrinter::num(arrivals, 0) << ", completed "
       << TablePrinter::num(completed, 0) << ", SLA violations "
       << TablePrinter::num(violations, 0) << " ("
       << TablePrinter::percent(completed > 0 ? violations / completed
                                              : 0.0)
       << "), lost queries " << TablePrinter::num(lost, 0) << "\n";
}

void
writeNativeSummary(std::ostream &os, const PromParseResult &prom)
{
    double rows_gathered = 0.0;
    for (const auto &s : prom.samples)
        if (s.name == "erec_shard_rows_gathered")
            rows_gathered += s.value;
    os << "native serving stack: queries served "
       << TablePrinter::num(prom.value("erec_frontend_queries_served"), 0)
       << ", rows gathered " << TablePrinter::num(rows_gathered, 0)
       << " over " << prom.count("erec_shard_rows_gathered")
       << " shards\n";
    if (prom.count("erec_serving_queries_served") == 0) {
        os << "dispatcher: none (serial serving)\n";
        return;
    }
    const double queries = prom.value("erec_serving_queries_served");
    const double batches = prom.value("erec_serving_batches_served");
    os << "dispatcher: " << TablePrinter::num(queries, 0)
       << " queries in " << TablePrinter::num(batches, 0)
       << " batches (mean batch "
       << TablePrinter::num(batches > 0 ? queries / batches : 0.0)
       << "), " << TablePrinter::num(prom.value("erec_serving_queue_depth"), 0)
       << " still queued, executor workers "
       << TablePrinter::num(prom.value("erec_executor_workers"), 0) << "\n";
}

} // namespace

void
writeRunSummary(std::ostream &os, const PromParseResult &prom)
{
    if (prom.count("erec_arrivals_total") == 0 &&
        prom.count("erec_frontend_queries_served") > 0)
        writeNativeSummary(os, prom);
    else
        writeSimSummary(os, prom);
    os << "\n";
}

} // namespace erec::tools
