/**
 * @file
 * End-to-end telemetry tests: an autoscaled cluster simulation with 1%
 * query tracing must emit a Prometheus export, an erec_trace/v2
 * JSON-lines file and a Perfetto trace that parse cleanly (via the
 * promcheck parsers) and cross-check against the run's SimResult —
 * completions, SLA violations and scale events all match — while
 * tracing itself never perturbs the simulation or its determinism,
 * and re-running one traced simulation records only the new run.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/obs/perfetto.h"
#include "elasticrec/obs/report.h"
#include "elasticrec/obs/trace_schema.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/experiment.h"
#include "tools/promcheck/prom_parser.h"

namespace erec::sim {
namespace {

core::DeploymentPlan
erPlan(const model::DlrmConfig &config, const hw::NodeSpec &node)
{
    core::Planner planner = core::Planner::forPlatform(config, node);
    return planner.planElasticRec({cdfFor(config, 256)});
}

/** A traffic step that forces the HPA to scale up mid-run. */
workload::TrafficPattern
stepTraffic()
{
    return workload::TrafficPattern(
        {{0, 20.0}, {2 * units::kMinute, 60.0}});
}

SimOptions
tracedOptions()
{
    SimOptions opt;
    opt.seed = 7;
    opt.traceSampleEvery = 100; // 1% of queries
    return opt;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

TEST(SimObsTest, ExportedTelemetryCrossChecksSimResult)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);
    ClusterSimulation sim(plan, node, stepTraffic(), tracedOptions());
    const auto r = sim.run(6 * units::kMinute);
    ASSERT_GT(r.completed, 0u);
    EXPECT_GT(r.scaleEvents, 0u) << "traffic step must trigger the HPA";

    const auto dir = std::filesystem::temp_directory_path() /
                     "erec_sim_obs_test";
    std::filesystem::remove_all(dir);
    obs::writeMetricsFiles(dir.string(), "run", sim.observability(),
                           {.spans = &sim.spans(),
                            .alerts = &sim.alertEvents()});

    // The Prometheus export parses and passes histogram invariants.
    const auto prom =
        tools::parsePrometheusText(readFile(dir / "run.prom"));
    for (const auto &e : prom.errors)
        ADD_FAILURE() << e;
    ASSERT_TRUE(prom.ok);

    // Counters match the run's own accounting exactly.
    const std::string frontend = plan.frontendShard().name;
    EXPECT_EQ(prom.value("erec_arrivals_total"),
              static_cast<double>(r.arrivals));
    EXPECT_EQ(prom.value("erec_completions_total",
                         {{"deployment", frontend}}),
              static_cast<double>(r.completed));
    EXPECT_EQ(prom.value("erec_sla_violations_total",
                         {{"deployment", frontend}}),
              static_cast<double>(r.slaViolations));

    // Scale events: per-deployment up+down counters sum to the
    // SimResult's totals.
    double exported_events = 0;
    for (const auto &s : prom.samples)
        if (s.name == "erec_hpa_scale_events_total")
            exported_events += s.value;
    EXPECT_EQ(exported_events, static_cast<double>(r.scaleEvents));
    for (const auto &[dep, events] : r.scaleEventsByDeployment) {
        const double up = prom.value("erec_hpa_scale_events_total",
                                     {{"deployment", dep},
                                      {"direction", "up"}});
        const double down = prom.value("erec_hpa_scale_events_total",
                                       {{"deployment", dep},
                                        {"direction", "down"}});
        EXPECT_EQ(up + down, static_cast<double>(events)) << dep;
    }

    // The latency histogram saw every completion.
    EXPECT_EQ(prom.value("erec_latency_ms_count",
                         {{"deployment", frontend}}),
              static_cast<double>(r.completed));

    // The trace file re-reads and matches the in-memory events, and
    // the Perfetto export next to it validates.
    const auto events =
        obs::readTraceJsonLines(readFile(dir / "run_traces.jsonl"));
    EXPECT_EQ(events.size(), sim.spans().size());
    EXPECT_EQ(obs::validatePerfettoJson(
                  readFile(dir / "run_perfetto.json")),
              std::vector<std::string>{});
    std::filesystem::remove_all(dir);
}

TEST(SimObsTest, TracesObeySpanInvariants)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    ClusterSimulation sim(erPlan(config, node), node, stepTraffic(),
                          tracedOptions());
    const auto r = sim.run(5 * units::kMinute);

    // 1% sampling: one trace per 100 arrivals, first arrival included,
    // with trace id = arrival index + 1.
    ASSERT_GT(r.arrivals, 100u);
    const auto trees = obs::buildSpanTrees(sim.spans());
    ASSERT_EQ(trees.size(), (r.arrivals - 1) / 100 + 1);
    for (std::size_t i = 0; i < trees.size(); ++i)
        EXPECT_EQ(trees[i].traceId, 100 * i + 1);
    EXPECT_EQ(obs::validateTraceSchema(sim.spans()),
              std::vector<std::string>{});

    std::size_t completed_traces = 0;
    for (const auto &tree : trees) {
        const obs::SpanEvent &root = tree.nodes[tree.root].event;
        ASSERT_EQ(root.spanId, obs::kRootSpanId);
        if (root.endUs == obs::kOpenSpanEnd)
            continue;
        ++completed_traces;
        EXPECT_GE(root.endUs, root.startUs);
        for (const auto &node : tree.nodes) {
            const obs::SpanEvent &span = node.event;
            const std::string &name = obs::spanName(span.name);
            EXPECT_LE(span.startUs, span.endUs) << name;
            EXPECT_GE(span.startUs, root.startUs) << name;
            EXPECT_LE(span.endUs, root.endUs) << name;
        }
        EXPECT_GT(tree.nodes.size(), 1u);
    }
    EXPECT_GT(completed_traces, 0u);
}

TEST(SimObsTest, TracedRunsAreByteIdenticalForSameSeed)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);

    ClusterSimulation a(plan, node, stepTraffic(), tracedOptions());
    ClusterSimulation b(plan, node, stepTraffic(), tracedOptions());
    a.run(4 * units::kMinute);
    b.run(4 * units::kMinute);

    EXPECT_EQ(obs::toPrometheusText(a.observability()),
              obs::toPrometheusText(b.observability()));
    std::ostringstream a_lines, b_lines;
    obs::writeTraceJsonLines(a_lines, a.spans());
    obs::writeTraceJsonLines(b_lines, b.spans());
    EXPECT_FALSE(a.spans().empty());
    EXPECT_EQ(a_lines.str(), b_lines.str());
}

TEST(SimObsTest, TracingDoesNotPerturbTheSimulation)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);

    SimOptions off;
    off.seed = 7;
    ClusterSimulation base(plan, node, stepTraffic(), off);
    const auto r_off = base.run(4 * units::kMinute);
    ClusterSimulation traced(plan, node, stepTraffic(),
                             tracedOptions());
    const auto r_on = traced.run(4 * units::kMinute);

    EXPECT_EQ(r_off.arrivals, r_on.arrivals);
    EXPECT_EQ(r_off.completed, r_on.completed);
    EXPECT_EQ(r_off.slaViolations, r_on.slaViolations);
    EXPECT_DOUBLE_EQ(r_off.meanLatencyMs, r_on.meanLatencyMs);
    EXPECT_EQ(r_off.peakMemory, r_on.peakMemory);
    EXPECT_EQ(r_off.scaleEvents, r_on.scaleEvents);
    EXPECT_TRUE(base.spans().empty()) << "sampling off records nothing";
}

TEST(SimObsTest, RerunOnOneObjectTracesOnlyTheNewRun)
{
    // A second run() on the same object inherits the first run's
    // in-flight queries. They must finish untraced: the span vector
    // they pointed into is cleared, and their trace ids would collide
    // with the new run's.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt;
    opt.seed = 7;
    opt.autoscale = false;
    opt.sampling = SamplingMode::EventTime;
    opt.traceSampleEvery = 1;
    ClusterSimulation sim(erPlan(config, node), node,
                          workload::TrafficPattern(
                              {{0, 90.0}, {10 * units::kSecond, 45.0}}),
                          opt);
    sim.run(10 * units::kSecond);
    const auto r = sim.run(30 * units::kSecond);
    ASSERT_GT(r.arrivals, 0u);

    EXPECT_EQ(obs::validateTraceSchema(sim.spans()),
              std::vector<std::string>{});
    const auto report =
        obs::attributeStages(obs::buildSpanTrees(sim.spans()));
    EXPECT_EQ(report.tracedQueries, r.arrivals);
    // Completions of carried-over queries count in the SimResult but
    // were not traced.
    EXPECT_LE(report.completedTraces, r.completed);
    EXPECT_GT(report.completedTraces, 0u);
}

TEST(SimObsTest, PromcheckRejectsHeaderOnlyFamilies)
{
    const auto result = tools::parsePrometheusText(
        "# HELP erec_ghost A family with no samples.\n"
        "# TYPE erec_ghost gauge\n"
        "# TYPE erec_live counter\n"
        "erec_live 3\n");
    EXPECT_FALSE(result.ok);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].find("erec_ghost"), std::string::npos);
    EXPECT_NE(result.errors[0].find("no samples"), std::string::npos);
}

TEST(SimObsTest, PodFailureFiresLostQueriesAlert)
{
    // The failure-ablation scenario in miniature: crash a frontend pod
    // mid-run and the default "lost-queries" rule must transition to
    // firing (and stay firing — lost_queries is cumulative), with the
    // transition visible both in the alert log and as exported
    // counters.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);
    SimOptions opt;
    opt.seed = 11;
    opt.traceSampleEvery = 10;
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(60.0),
                          opt);
    sim.injectPodFailure(plan.frontendShard().name, units::kMinute, 1);
    const auto r = sim.run(3 * units::kMinute);
    ASSERT_GT(sim.lostQueries(), 0u)
        << "crash must lose in-flight queries";

    // Sampled lost queries keep their root span open, and the open
    // root is the only open span the schema admits.
    EXPECT_EQ(obs::validateTraceSchema(sim.spans()),
              std::vector<std::string>{});
    const auto traced =
        obs::attributeStages(obs::buildSpanTrees(sim.spans()));
    EXPECT_GT(traced.lostTraces, 0u);
    EXPECT_LE(traced.lostTraces, r.arrivals - r.completed);

    EXPECT_TRUE(sim.slo().firing("lost-queries"));
    std::uint64_t fired = 0, resolved = 0;
    SimTime first_firing = 0;
    for (const auto &e : sim.alertEvents()) {
        if (e.alert != "lost-queries")
            continue;
        if (e.firing) {
            ++fired;
            if (first_firing == 0)
                first_firing = e.time;
            EXPECT_GT(e.value, 0.0);
        } else {
            ++resolved;
        }
    }
    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(resolved, 0u) << "cumulative losses never resolve";
    EXPECT_GE(first_firing, units::kMinute)
        << "alert cannot predate the crash";

    const auto &reg = sim.observability();
    EXPECT_EQ(reg.value("erec_alert_transitions_total",
                        {{"alert", "lost-queries"},
                         {"transition", "firing"}}),
              1.0);
    EXPECT_EQ(reg.value("erec_alert_firing",
                        {{"alert", "lost-queries"}}),
              1.0);
    EXPECT_EQ(reg.value("erec_lost_queries"),
              static_cast<double>(sim.lostQueries()));
}

TEST(SimObsTest, SteadyRunKeepsLostQueriesAlertQuiet)
{
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    SimOptions opt;
    opt.seed = 7;
    ClusterSimulation sim(erPlan(config, node), node,
                          workload::TrafficPattern::constant(20.0),
                          opt);
    sim.run(2 * units::kMinute);
    EXPECT_EQ(sim.lostQueries(), 0u);
    EXPECT_FALSE(sim.slo().firing("lost-queries"));
    for (const auto &e : sim.alertEvents())
        EXPECT_NE(e.alert, "lost-queries");
}

TEST(SimObsTest, ExternalRegistryIsShared)
{
    // A caller-provided registry receives the simulation's metrics, so
    // several components can publish into one scrape surface.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    const auto plan = erPlan(config, node);
    auto registry = std::make_shared<obs::Registry>();
    SimOptions opt;
    opt.seed = 7;
    opt.observability = registry;
    ClusterSimulation sim(plan, node,
                          workload::TrafficPattern::constant(20.0),
                          opt);
    const auto r = sim.run(units::kMinute);
    EXPECT_EQ(registry.get(), &sim.observability());
    EXPECT_EQ(registry->value("erec_arrivals_total"),
              static_cast<double>(r.arrivals));
}

} // namespace
} // namespace erec::sim
