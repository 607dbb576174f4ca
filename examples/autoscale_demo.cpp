/**
 * @file
 * Autoscaling demo: a diurnal-style traffic wave served by ElasticRec
 * and by the model-wise baseline on the CPU-only cluster, with both
 * architectures scaling via the Kubernetes-style HPA. Prints a
 * minute-by-minute console dashboard and a final comparison — a
 * hands-on version of the paper's Figure 19 experiment.
 */

#include <iostream>
#include <string>

#include "elasticrec/common/logging.h"
#include "elasticrec/common/table_printer.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/experiment.h"

using namespace erec;

namespace {

workload::TrafficPattern
diurnalWave()
{
    // A compressed day: sleepy morning, lunch spike, evening peak.
    using namespace erec::units;
    return workload::TrafficPattern({
        {0, 15.0},
        {3 * kMinute, 40.0},
        {6 * kMinute, 25.0},
        {9 * kMinute, 80.0},
        {13 * kMinute, 100.0},
        {16 * kMinute, 30.0},
    });
}

void
report(const char *name, const sim::SimResult &r)
{
    std::cout << "\n[" << name << "] minute-by-minute:\n";
    TablePrinter t({"minute", "target", "achieved", "p95 ms",
                    "memory GiB", "replicas", "nodes"});
    const auto &pts = r.targetQps.points();
    for (std::size_t i = 0; i < pts.size(); i += 60) {
        t.addRow({TablePrinter::num(static_cast<std::int64_t>(
                      units::toSeconds(pts[i].first) / 60)),
                  TablePrinter::num(pts[i].second, 0),
                  TablePrinter::num(
                      r.achievedQps.points()[i].second, 1),
                  TablePrinter::num(
                      r.p95LatencyMs.points()[i].second, 1),
                  TablePrinter::num(
                      r.memoryGiB.points()[i].second, 1),
                  TablePrinter::num(static_cast<std::int64_t>(
                      r.readyReplicas.points()[i].second)),
                  TablePrinter::num(static_cast<std::int64_t>(
                      r.nodesInUse.points()[i].second))});
    }
    t.print(std::cout);
    std::cout << "  completed " << r.completed << " queries, "
              << r.slaViolations << " SLA violations ("
              << TablePrinter::percent(
                     static_cast<double>(r.slaViolations) /
                     std::max<std::uint64_t>(1, r.completed))
              << "), peak memory "
              << units::formatBytes(r.peakMemory) << ", peak nodes "
              << r.peakNodes << ", " << r.scaleEvents
              << " scale events\n";
}

void
exportTelemetry(const std::string &dir, const std::string &stem,
                sim::ClusterSimulation &sim)
{
    if (dir.empty())
        return;
    const auto &spans = sim.spans();
    obs::ExportArtifacts artifacts;
    artifacts.spans = spans.empty() ? nullptr : &spans;
    artifacts.alerts = &sim.alertEvents();
    obs::writeMetricsFiles(dir, stem, sim.observability(), artifacts);
    std::cout << "  telemetry: " << dir << "/" << stem << ".prom\n";
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    // Optional: `--metrics-out DIR` dumps each run's Prometheus
    // export plus a 1%-sampled query-trace JSON-lines file.
    std::string metrics_dir;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--metrics-out")
            metrics_dir = argv[i + 1];

    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto traffic = diurnalWave();
    const SimTime duration = 20 * units::kMinute;

    std::cout << "Serving " << config.name << " through a compressed "
              << "diurnal traffic wave (" << units::toSeconds(duration) / 60
              << " simulated minutes, SLA 400 ms)...\n";

    core::Planner planner = core::Planner::forPlatform(config, node);
    const auto cdf = sim::cdfFor(config);

    sim::SimOptions opt;
    opt.seed = 99;
    opt.traceSampleEvery = metrics_dir.empty() ? 0 : 100;

    sim::ClusterSimulation er(planner.planElasticRec({cdf}), node,
                              traffic, opt);
    const auto er_result = er.run(duration);
    report("ElasticRec", er_result);
    exportTelemetry(metrics_dir, "autoscale_elasticrec", er);

    sim::ClusterSimulation mw(planner.planModelWise(), node, traffic,
                              opt);
    const auto mw_result = mw.run(duration);
    report("model-wise", mw_result);
    exportTelemetry(metrics_dir, "autoscale_modelwise", mw);

    std::cout << "\nElasticRec vs model-wise: "
              << TablePrinter::ratio(
                     static_cast<double>(mw_result.peakMemory) /
                     std::max<Bytes>(1, er_result.peakMemory))
              << " peak-memory advantage, "
              << mw_result.slaViolations << " -> "
              << er_result.slaViolations << " SLA violations\n";
    return 0;
}
