/**
 * @file
 * End-to-end pins on the event-driven simulator core:
 *
 *  - the compat-tick fig19 reproduction must match the pre-refactor
 *    closure engine byte-for-byte (goldens under tests/golden/),
 *  - EventTime sampling must produce the identical SimResult (it only
 *    changes per-pod gauge export),
 *  - the steady query path must be allocation-free (AllocGate pin on
 *    the sim.query_path region), and the traced path must allocate
 *    less than once per traced query.
 *
 * EREC_TEST_GOLDEN_DIR is injected by the build and points at the
 * checked-in golden CSVs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/hw/platform.h"
#include "elasticrec/model/dlrm_config.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/sim/cluster_sim.h"
#include "elasticrec/sim/csv.h"
#include "elasticrec/sim/experiment.h"
#include "elasticrec/workload/traffic.h"

namespace erec::sim {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

struct Fig19Setup
{
    model::DlrmConfig config = model::rm1();
    hw::NodeSpec node = hw::cpuOnlyNode();
    workload::TrafficPattern traffic =
        workload::TrafficPattern::fig19();
    core::DeploymentPlan elasticRec;
    core::DeploymentPlan modelWise;

    Fig19Setup()
    {
        core::Planner planner = core::Planner::forPlatform(config, node);
        const auto cdf = cdfFor(config, 1024);
        elasticRec = planner.planElasticRec({cdf});
        modelWise = planner.planModelWise();
    }
};

SimOptions
fig19Options()
{
    SimOptions opt;
    opt.seed = 42;
    return opt;
}

std::string
csvOf(const SimResult &result)
{
    std::ostringstream out;
    writeSimResultCsv(out, result);
    return out.str();
}

TEST(SimGoldenTest, Fig19CompatTickIsByteIdentical)
{
    // The event-driven engine must reproduce the closure engine's
    // fig19 output exactly: same schedule order => same FIFO
    // tie-breaks => same RNG draw order => identical CSV bytes.
    const Fig19Setup setup;
    const SimTime duration = 28 * units::kMinute;

    ClusterSimulation er(setup.elasticRec, setup.node, setup.traffic,
                         fig19Options());
    EXPECT_EQ(csvOf(er.run(duration)),
              readFile(std::string(EREC_TEST_GOLDEN_DIR) +
                       "/fig19_elasticrec.csv"));

    ClusterSimulation mw(setup.modelWise, setup.node, setup.traffic,
                         fig19Options());
    EXPECT_EQ(csvOf(mw.run(duration)),
              readFile(std::string(EREC_TEST_GOLDEN_DIR) +
                       "/fig19_modelwise.csv"));
}

TEST(SimGoldenTest, TracingLeavesResultsUntouched)
{
    // Deterministic trace sampling consumes no randomness: a traced
    // run's CSV is identical to the untraced golden.
    const Fig19Setup setup;
    SimOptions opt = fig19Options();
    opt.traceSampleEvery = 100;
    ClusterSimulation er(setup.elasticRec, setup.node, setup.traffic,
                         opt);
    const auto result = er.run(28 * units::kMinute);
    EXPECT_EQ(csvOf(result),
              readFile(std::string(EREC_TEST_GOLDEN_DIR) +
                       "/fig19_elasticrec.csv"));
    EXPECT_FALSE(er.spans().empty());
}

TEST(SimGoldenTest, EventTimeSamplingMatchesCompatTick)
{
    // The modes differ only in per-pod gauge export; every number in
    // the SimResult must be identical.
    const Fig19Setup setup;
    const SimTime duration = 10 * units::kMinute;

    SimOptions compat = fig19Options();
    compat.sampling = SamplingMode::CompatTick;
    ClusterSimulation a(setup.elasticRec, setup.node, setup.traffic,
                        compat);
    const auto ra = a.run(duration);

    SimOptions event_time = fig19Options();
    event_time.sampling = SamplingMode::EventTime;
    ClusterSimulation b(setup.elasticRec, setup.node, setup.traffic,
                        event_time);
    const auto rb = b.run(duration);

    EXPECT_EQ(csvOf(ra), csvOf(rb));
    EXPECT_EQ(ra.arrivals, rb.arrivals);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.slaViolations, rb.slaViolations);
    EXPECT_EQ(ra.meanLatencyMs, rb.meanLatencyMs);
    EXPECT_EQ(ra.p95LatencyOverallMs, rb.p95LatencyOverallMs);
    EXPECT_EQ(ra.peakMemory, rb.peakMemory);
    EXPECT_EQ(ra.scaleEvents, rb.scaleEvents);
    EXPECT_EQ(ra.finalReplicas, rb.finalReplicas);

    // And the mode must actually change the export surface: compat
    // publishes per-pod depth gauges, event-time does not.
    const auto compat_export = obs::toPrometheusText(a.observability());
    const auto event_export = obs::toPrometheusText(b.observability());
    EXPECT_NE(compat_export.find("erec_pod_queue_depth"),
              std::string::npos);
    EXPECT_EQ(event_export.find("erec_pod_queue_depth{"),
              std::string::npos);
}

/** What the sim.query_path region saw during a steady run leg. */
struct SteadyLeg
{
    SimResult result;
    bool found = false;
    std::uint64_t enters = 0;
    std::uint64_t allocs = 0;
    /** Queries the leg sampled (root spans recorded). */
    std::uint64_t tracedQueries = 0;
};

/**
 * Warm one simulation past its peak in-flight population, zero the
 * region counters, then keep running and report the gated query-path
 * events' (arrival, RPC arrival, stage done, component done)
 * allocations in that second leg.
 *
 * The warm-up leg runs at twice the measurement rate on the same
 * fixed fleet, so every capacity high-water mark (stage rings, query
 * arena, event heap, rate windows) is set during warm-up — at equal
 * rates the depth maximum keeps creeping up and any new record would
 * allocate once inside the gate.
 */
SteadyLeg
runSteadyLeg(std::uint32_t trace_sample_every)
{
    const Fig19Setup setup;
    SimOptions opt;
    opt.seed = 7;
    opt.autoscale = false; // fixed fleet: no pod churn
    opt.warmStart = true;  // sized for the 90-QPS warm-up rate
    opt.sampling = SamplingMode::EventTime;
    opt.traceSampleEvery = trace_sample_every;
    const workload::TrafficPattern warm_then_measure(
        {{0, 90.0}, {30 * units::kSecond, 45.0}});
    ClusterSimulation er(setup.elasticRec, setup.node,
                         warm_then_measure, opt);
    er.run(30 * units::kSecond);

    resetAllocRegionStats();
    // Same simulation object: the clock, arena and rings carry over,
    // so this second leg is pure steady state.
    SteadyLeg leg;
    leg.result = er.run(90 * units::kSecond);
    for (const auto &region : allocRegionStats()) {
        if (std::string(region.name) != "sim.query_path")
            continue;
        leg.found = true;
        leg.enters = region.enters;
        leg.allocs = region.allocs;
    }
    for (const auto &e : er.spans())
        leg.tracedQueries += e.spanId == obs::kRootSpanId ? 1 : 0;
    return leg;
}

TEST(SimGoldenTest, SteadyQueryPathIsAllocationFree)
{
    const SteadyLeg leg = runSteadyLeg(0);
    EXPECT_GT(leg.result.completed, 1000u);
    ASSERT_TRUE(leg.found) << "sim.query_path region not registered";
    EXPECT_GT(leg.enters, 0u) << "gate never entered: the pin is vacuous";
    EXPECT_EQ(leg.allocs, 0u)
        << "query-path events allocated on the steady path";
}

TEST(SimGoldenTest, TracedQueryPathAllocatesLessThanOncePerTrace)
{
    // Sampled queries append POD SpanEvents to one vector that keeps
    // its capacity across runs, so the traced path allocates only when
    // that vector's capacity doubles — far less than once per traced
    // query.
    const SteadyLeg leg = runSteadyLeg(100);
    ASSERT_TRUE(leg.found);
    ASSERT_GT(leg.tracedQueries, 10u);
    EXPECT_LT(leg.allocs, leg.tracedQueries)
        << leg.allocs << " allocations for " << leg.tracedQueries
        << " traced queries";
    RecordProperty("traced_queries", static_cast<int>(leg.tracedQueries));
    RecordProperty("query_path_allocs", static_cast<int>(leg.allocs));
}

} // namespace
} // namespace erec::sim
