/**
 * @file
 * Tests for per-stage latency attribution and report rendering
 * (elasticrec/obs/report): span-name normalization, stage aggregation
 * and critical paths over hand-built span trees, alert-log rollups,
 * the text renderers, and a full-simulation cross-check where every
 * query is traced and the attribution totals must match the run's own
 * SimResult accounting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "elasticrec/core/planner.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/obs/report.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/experiment.h"
#include "tools/promcheck/prom_parser.h"
#include "tools/report/run_summary.h"

namespace erec::obs {
namespace {

TEST(StageOfTest, StripsPerDeploymentSegment)
{
    EXPECT_EQ(stageOf("sparse/rm1-sparse-0/queue"), "sparse/queue");
    EXPECT_EQ(stageOf("sparse/rm1-sparse-0/service"), "sparse/service");
    EXPECT_EQ(stageOf("rpc/rm1-sparse-1/request"), "rpc/request");
    EXPECT_EQ(stageOf("rpc/rm1-sparse-1/response"), "rpc/response");
    // One- and two-segment names are already stage names.
    EXPECT_EQ(stageOf("dense/compute"), "dense/compute");
    EXPECT_EQ(stageOf("mono/queue"), "mono/queue");
    EXPECT_EQ(stageOf("merge"), "merge");
}

/** One span of trace `trace_id`; the default ids make it the root. */
SpanEvent
span(std::uint64_t trace_id, const std::string &name, SimTime start,
     SimTime end, std::uint64_t span_id = kRootSpanId,
     std::uint64_t parent_id = 0)
{
    SpanEvent e;
    e.traceId = trace_id;
    e.spanId = span_id;
    e.parentId = parent_id;
    e.startUs = start;
    e.endUs = end;
    e.name = internSpanName(name);
    return e;
}

/** A child of trace `trace_id`'s root in child slot `slot`. */
SpanEvent
child(std::uint64_t trace_id, unsigned slot, const std::string &name,
      SimTime start, SimTime end)
{
    const TraceContext root{trace_id, kRootSpanId};
    return span(trace_id, name, start, end, root.childSpanId(slot),
                kRootSpanId);
}

constexpr SimTime kMs = units::kMillisecond;

TEST(AttributeStagesTest, AggregatesNormalizedStages)
{
    const auto trees = buildSpanTrees({
        // Query 1: 10 ms end to end; queue 2 ms, two shard RPCs 4 ms
        // each.
        span(1, "query", 0, 10 * kMs),
        child(1, 0, "dense/queue", 0, 2 * kMs),
        child(1, 2, "rpc/s0/request", 2 * kMs, 6 * kMs),
        child(1, 3, "rpc/s1/request", 2 * kMs, 6 * kMs),
        // Query 2: 20 ms end to end; queue 6 ms.
        span(2, "query", 100 * kMs, 120 * kMs),
        child(2, 0, "dense/queue", 100 * kMs, 106 * kMs),
        // Query 3: lost (open root) — spans must not contribute.
        span(3, "query", 200 * kMs, kOpenSpanEnd),
        child(3, 0, "dense/queue", 200 * kMs, 201 * kMs),
    });

    const auto report = attributeStages(trees);
    EXPECT_EQ(report.tracedQueries, 3u);
    EXPECT_EQ(report.completedTraces, 2u);
    EXPECT_EQ(report.lostTraces, 1u);
    EXPECT_DOUBLE_EQ(report.endToEndTotalMs, 30.0);
    EXPECT_DOUBLE_EQ(report.meanEndToEndMs, 15.0);

    // The root spans form the `query` stage: exactly the end-to-end
    // total, so it leads the table.
    ASSERT_EQ(report.stages.size(), 3u);
    EXPECT_EQ(report.stages[0].stage, "query");
    EXPECT_DOUBLE_EQ(report.stages[0].totalMs, 30.0);
    // dense/queue: 2 + 6 = 8 ms total, rpc/request: 4 + 4 = 8 ms;
    // equal totals tie-break by name.
    EXPECT_EQ(report.stages[1].stage, "dense/queue");
    EXPECT_EQ(report.stages[1].spans, 2u);
    EXPECT_DOUBLE_EQ(report.stages[1].totalMs, 8.0);
    EXPECT_DOUBLE_EQ(report.stages[1].meanMs, 4.0);
    EXPECT_DOUBLE_EQ(report.stages[1].shareOfEndToEnd, 8.0 / 30.0);
    EXPECT_EQ(report.stages[2].stage, "rpc/request");
    EXPECT_EQ(report.stages[2].spans, 2u);
    EXPECT_DOUBLE_EQ(report.stages[2].totalMs, 8.0);
}

TEST(AttributeStagesTest, OpenSpansStayOutOfSketchesButAreCounted)
{
    const auto trees = buildSpanTrees({
        // A completed trace with one closed span and one span that was
        // still open at export (end precedes start): the open span
        // must not poison the stage statistics with a bogus duration.
        span(1, "query", 0, 10 * kMs),
        child(1, 0, "dense/queue", 0, 2 * kMs),
        child(1, 1, "dense/compute", 5 * kMs, 0),
        // A lost trace: every one of its spans is open by definition,
        // its open root included.
        span(2, "query", 50 * kMs, kOpenSpanEnd),
        child(2, 0, "dense/queue", 50 * kMs, 51 * kMs),
        child(2, 2, "rpc/s0/request", 51 * kMs, 53 * kMs),
    });

    const auto report = attributeStages(trees);
    EXPECT_EQ(report.lostTraces, 1u);
    // 1 open span on the completed trace + 3 on the lost trace.
    EXPECT_EQ(report.openSpans, 4u);
    // Only the completed trace's closed spans reach the sketches: no
    // dense/compute stage, no rpc/request stage, and exactly one
    // counted dense/queue span.
    ASSERT_EQ(report.stages.size(), 2u);
    EXPECT_EQ(report.stages[0].stage, "query");
    EXPECT_EQ(report.stages[1].stage, "dense/queue");
    EXPECT_EQ(report.stages[1].spans, 1u);
    EXPECT_DOUBLE_EQ(report.stages[1].totalMs, 2.0);
}

TEST(CriticalPathTest, FollowsTheChildThatBoundsCompletion)
{
    std::vector<SpanEvent> events;
    for (std::uint64_t id = 1; id <= 2; ++id) {
        const TraceContext rpc = TraceContext{id, kRootSpanId}.child(2);
        events.push_back(span(id, "query", 0, 10 * kMs));
        // The gather RPC (ends at 9 ms) bounds completion; dense
        // compute (5 ms) does not.
        events.push_back(child(id, 2, "rpc/s0/request", 0, 9 * kMs));
        events.push_back(span(id, "sparse/s0/service", 2 * kMs, 8 * kMs,
                              rpc.childSpanId(1), rpc.spanId));
        events.push_back(child(id, 1, "dense/compute", 0, 5 * kMs));
    }
    // A lost trace contributes nothing to critical paths.
    events.push_back(span(9, "query", 0, kOpenSpanEnd));

    const auto report = analyzeCriticalPaths(buildSpanTrees(events));
    EXPECT_EQ(report.analyzedTraces, 2u);
    ASSERT_EQ(report.chains.size(), 1u);
    // Per-deployment segments normalize away, so many-shard runs
    // aggregate into a handful of readable chains.
    EXPECT_EQ(report.chains[0].chain,
              "query > rpc/request > sparse/service");
    EXPECT_EQ(report.chains[0].count, 2u);
    EXPECT_DOUBLE_EQ(report.chains[0].meanMs, 10.0);
}

TEST(AttributeStagesTest, BatchTracesStayOutOfTheReport)
{
    // A native serving run's batch traces describe coalescing, not a
    // query: neither table may count them.
    const auto trees = buildSpanTrees({
        span(1, "serving/query", 0, 4 * kMs),
        span(kBatchTraceBit | 1, "serving/batch", 1 * kMs, 3 * kMs),
    });
    const auto stages = attributeStages(trees);
    EXPECT_EQ(stages.tracedQueries, 1u);
    ASSERT_EQ(stages.stages.size(), 1u);
    EXPECT_EQ(stages.stages[0].stage, "serving/query");
    EXPECT_EQ(analyzeCriticalPaths(trees).analyzedTraces, 1u);
}

TEST(AttributeStagesTest, EmptyInputYieldsEmptyReport)
{
    const auto report = attributeStages({});
    EXPECT_TRUE(report.stages.empty());
    EXPECT_EQ(report.tracedQueries, 0u);
    EXPECT_DOUBLE_EQ(report.endToEndTotalMs, 0.0);
}

TEST(SummarizeAlertsTest, RollsUpTransitionsPerAlert)
{
    std::vector<AlertEvent> events;
    events.push_back({1 * units::kSecond, "a", true, 2.0});
    events.push_back({2 * units::kSecond, "a", false, 0.5});
    events.push_back({3 * units::kSecond, "b", true, 9.0});
    events.push_back({4 * units::kSecond, "a", true, 3.0});

    const auto verdicts = summarizeAlerts(events);
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0].alert, "a");
    EXPECT_EQ(verdicts[0].fired, 2u);
    EXPECT_EQ(verdicts[0].resolved, 1u);
    EXPECT_TRUE(verdicts[0].firingAtEnd);
    EXPECT_EQ(verdicts[1].alert, "b");
    EXPECT_EQ(verdicts[1].fired, 1u);
    EXPECT_EQ(verdicts[1].resolved, 0u);
    EXPECT_TRUE(verdicts[1].firingAtEnd);
    EXPECT_TRUE(summarizeAlerts({}).empty());
}

TEST(ReportRenderTest, SectionsAreSelfDescribing)
{
    std::ostringstream empty_table;
    writeStageTable(empty_table, attributeStages({}));
    EXPECT_NE(empty_table.str().find("no completed traces"),
              std::string::npos);

    std::ostringstream empty_paths;
    writeCriticalPathTable(empty_paths, analyzeCriticalPaths({}));
    EXPECT_NE(empty_paths.str().find("no completed traces"),
              std::string::npos);

    std::ostringstream pass;
    writeSloVerdicts(pass, {});
    EXPECT_NE(pass.str().find("PASS"), std::string::npos);

    std::vector<AlertEvent> events = {
        {5 * units::kSecond, "lost-queries", true, 3.0}};
    std::ostringstream verdicts;
    writeSloVerdicts(verdicts, summarizeAlerts(events));
    EXPECT_NE(verdicts.str().find("lost-queries"), std::string::npos);

    std::ostringstream timeline;
    writeAlertTimeline(timeline, events);
    EXPECT_NE(timeline.str().find("FIRING"), std::string::npos);
    std::ostringstream no_timeline;
    writeAlertTimeline(no_timeline, {});
    EXPECT_NE(no_timeline.str().find("empty"), std::string::npos);
}

/** The run-summary lines of one Prometheus dump. */
std::string
runSummary(const std::string &prom_text)
{
    const auto prom = tools::parsePrometheusText(prom_text);
    EXPECT_TRUE(prom.ok);
    std::ostringstream os;
    tools::writeRunSummary(os, prom);
    return os.str();
}

TEST(RunSummaryTest, SimulatorDumpSummarizesTheFrontendDeployment)
{
    const std::string summary = runSummary(
        "# TYPE erec_arrivals_total counter\n"
        "erec_arrivals_total 120\n"
        "# TYPE erec_latency_ms histogram\n"
        "erec_latency_ms_bucket{deployment=\"rm1-dense\",le=\"+Inf\"} "
        "118\n"
        "erec_latency_ms_sum{deployment=\"rm1-dense\"} 900\n"
        "erec_latency_ms_count{deployment=\"rm1-dense\"} 118\n"
        "erec_latency_ms_bucket{deployment=\"rm1-sparse-0\",le=\"+Inf\"} "
        "118\n"
        "erec_latency_ms_sum{deployment=\"rm1-sparse-0\"} 0\n"
        "erec_latency_ms_count{deployment=\"rm1-sparse-0\"} 118\n"
        "# TYPE erec_sla_violations_total counter\n"
        "erec_sla_violations_total{deployment=\"rm1-dense\"} 2\n"
        "# TYPE erec_lost_queries gauge\n"
        "erec_lost_queries 0\n");
    EXPECT_EQ(summary, "frontend deployment: rm1-dense\n"
                       "arrivals 120, completed 118, SLA violations 2 "
                       "(1.7%), lost queries 0\n\n");
}

TEST(RunSummaryTest, NativeDumpSummarizesDispatcherAndShards)
{
    // The families a serving_throughput --metrics-out dump carries.
    const std::string summary = runSummary(
        "# TYPE erec_executor_workers gauge\n"
        "erec_executor_workers 2\n"
        "# TYPE erec_frontend_queries_served gauge\n"
        "erec_frontend_queries_served 316\n"
        "# TYPE erec_serving_batches_served gauge\n"
        "erec_serving_batches_served 80\n"
        "# TYPE erec_serving_queries_served gauge\n"
        "erec_serving_queries_served 316\n"
        "# TYPE erec_serving_queue_depth gauge\n"
        "erec_serving_queue_depth 0\n"
        "# TYPE erec_shard_rows_gathered gauge\n"
        "erec_shard_rows_gathered{table=\"table-0\",shard=\"shard-0\"} "
        "900\n"
        "erec_shard_rows_gathered{table=\"table-0\",shard=\"shard-1\"} "
        "100\n");
    EXPECT_EQ(summary,
              "native serving stack: queries served 316, rows gathered "
              "1000 over 2 shards\n"
              "dispatcher: 316 queries in 80 batches (mean batch 3.95), "
              "0 still queued, executor workers 2\n\n");
    EXPECT_EQ(summary.find("frontend deployment"), std::string::npos);
}

TEST(RunSummaryTest, SerialNativeDumpHasNoDispatcher)
{
    const std::string summary = runSummary(
        "# TYPE erec_frontend_queries_served gauge\n"
        "erec_frontend_queries_served 64\n");
    EXPECT_EQ(summary, "native serving stack: queries served 64, rows "
                       "gathered 0 over 0 shards\n"
                       "dispatcher: none (serial serving)\n\n");
}

TEST(ReportSimTest, StageSumsCrossCheckSimResult)
{
    // Trace every query, then the attribution totals are not samples
    // but the exact population the SimResult accounted.
    const auto config = model::rm1();
    const auto node = hw::cpuOnlyNode();
    core::Planner planner = core::Planner::forPlatform(config, node);
    const auto plan = planner.planElasticRec({sim::cdfFor(config, 256)});
    sim::SimOptions opt;
    opt.seed = 11;
    opt.traceSampleEvery = 1;
    sim::ClusterSimulation sim(plan, node,
                               workload::TrafficPattern::constant(25.0),
                               opt);
    const auto r = sim.run(2 * units::kMinute);
    ASSERT_GT(r.completed, 0u);

    const auto report = attributeStages(buildSpanTrees(sim.spans()));
    EXPECT_EQ(report.tracedQueries, r.arrivals);
    EXPECT_EQ(report.completedTraces, r.completed);
    EXPECT_EQ(report.lostTraces, r.arrivals - r.completed);

    // Mean end-to-end latency of the traces is the run's mean latency.
    EXPECT_NEAR(report.meanEndToEndMs, r.meanLatencyMs,
                1e-9 * r.meanLatencyMs);
    EXPECT_NEAR(report.endToEndTotalMs,
                r.meanLatencyMs * static_cast<double>(r.completed),
                1e-6 * report.endToEndTotalMs);

    // Every span lies inside its query, so a stage with one span per
    // query (the frontend stages) cannot contribute more than the
    // summed end-to-end latency; fan-out stages (one span per shard
    // RPC) may, which is exactly the overlap the report calls out.
    ASSERT_FALSE(report.stages.empty());
    bool saw_frontend_stage = false;
    for (const auto &stage : report.stages) {
        EXPECT_GT(stage.spans, 0u) << stage.stage;
        if (stage.spans == report.completedTraces) {
            saw_frontend_stage = true;
            EXPECT_LE(stage.totalMs,
                      report.endToEndTotalMs * (1 + 1e-9))
                << stage.stage;
        }
        EXPECT_NEAR(stage.totalMs / report.endToEndTotalMs,
                    stage.shareOfEndToEnd, 1e-12)
            << stage.stage;
    }
    EXPECT_TRUE(saw_frontend_stage);
}

} // namespace
} // namespace erec::obs
