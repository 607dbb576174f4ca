#include "elasticrec/sim/experiment.h"
#include "elasticrec/workload/traffic.h"
#include "sim.h"

namespace perfbench {

using namespace erec;

namespace {

/** The diurnal trace of the simulator throughput bench. */
workload::TrafficPattern::DiurnalOptions
diurnalShape()
{
    workload::TrafficPattern::DiurnalOptions d;
    d.troughQps = 100.0;
    d.peakQps = 500.0;
    d.period = 10 * units::kMinute;
    d.step = units::kSecond;
    return d;
}

/** Warm-up carries the trace past its first peak (t = period / 2). */
SimTime
warmUp()
{
    return 3 * diurnalShape().period / 4;
}

/**
 * Timed windows, in whole cycles so time-averaged memory covers every
 * phase of the trace. The model-wise fleet runs saturated and scales
 * erratically, so its average needs more cycles to stop depending on
 * the seed; per query it is ~40x cheaper to simulate than ElasticRec.
 */
constexpr int kCyclesEr = 1;
constexpr int kCyclesMw = 4;

std::unique_ptr<sim::ClusterSimulation>
makeSim(const core::DeploymentPlan &plan, std::uint64_t seed, int cycles)
{
    auto shape = diurnalShape();
    shape.duration = warmUp() + (cycles + 1) * shape.period;
    sim::SimOptions o;
    o.seed = seed;
    o.sampling = sim::SamplingMode::EventTime;
    return std::make_unique<sim::ClusterSimulation>(
        plan, hw::cpuOnlyNode(), workload::TrafficPattern::diurnal(shape),
        o);
}

/** One plan's timed window. */
struct Window
{
    sim::SimResult result;
    double wallSec = 0.0;
    std::uint64_t events = 0;
};

Window
timedWindow(sim::ClusterSimulation &sim, int cycles, const char *span,
            SpanLog &log)
{
    sim.run(warmUp());
    const std::uint64_t events_before = sim.eventsExecuted();
    Window w;
    const std::int64_t t0 = nowNs();
    w.result = sim.run(warmUp() + cycles * diurnalShape().period);
    const std::int64_t t1 = nowNs();
    log.add(span, 0, 0, t0, t1);
    w.wallSec = static_cast<double>(t1 - t0) * 1e-9;
    w.events = sim.eventsExecuted() - events_before;
    return w;
}

/**
 * True when the plan's sparse shards cover every row of every table
 * exactly once (contiguous, non-overlapping, starting at row 0).
 */
bool
shardsCoverTables(const core::DeploymentPlan &plan)
{
    for (std::uint32_t t = 0; t < plan.config.numTables; ++t) {
        std::uint64_t next = 0;
        for (const auto *s : plan.tableShards(t)) {
            if (s->beginRow != next || s->endRow <= s->beginRow)
                return false;
            next = s->endRow;
        }
        if (next != plan.config.rowsPerTable)
            return false;
    }
    return true;
}

} // namespace

SimWorkload::SimWorkload(std::uint64_t seed, SpanLog *log)
{
    const auto config = model::rm1();
    const auto planner =
        core::Planner::forPlatform(config, hw::cpuOnlyNode());
    std::int64_t t0 = nowNs();
    elasticRec_ = planner.planElasticRec({sim::cdfFor(config, 1024)});
    std::int64_t t1 = nowNs();
    if (log != nullptr)
        log->add("core.plan", 0, 0, t0, t1);
    t0 = nowNs();
    modelWise_ = planner.planModelWise();
    t1 = nowNs();
    if (log != nullptr)
        log->add("core.plan", 0, 0, t0, t1);
    simEr_ = makeSim(elasticRec_, seed, kCyclesEr);
    simMw_ = makeSim(modelWise_, seed, kCyclesMw);
}

void
SimWorkload::run(const RunOptions &, Report &e2e, Report &layers,
                 Outcome &outcome, SpanLog &log)
{
    const Window er = timedWindow(*simEr_, kCyclesEr, "sim.run.er", log);
    const Window mw = timedWindow(*simMw_, kCyclesMw, "sim.run.mw", log);

    const std::uint64_t lost = simEr_->lostQueries() + simMw_->lostQueries();
    outcome.attempted += er.result.arrivals + mw.result.arrivals;
    outcome.failed += lost;
    if (lost > 0 || !shardsCoverTables(elasticRec_))
        outcome.correct = false;

    const auto completed = [](const Window &w) {
        return static_cast<double>(w.result.completed);
    };
    const double er_mem = er.result.memoryGiB.meanValue();
    const double mw_mem = mw.result.memoryGiB.meanValue();
    // sim_qps is too unsteady on a shared host to gate, and the
    // model-wise fleet's memory (so mem_reduction_x) too dependent on
    // the seed (NOTES.md); the ElasticRec plan's memory is gated.
    layers["sim_qps"] = {completed(er) / er.wallSec, "1/s",
                         er.result.completed};
    layers["mem_reduction_x"] = {mw_mem / er_mem, "ratio",
                                 er.result.memoryGiB.size()};
    e2e["cluster.mem_gib.er"] = {er_mem, "GiB", er.result.memoryGiB.size()};

    layers["sim.events_per_query"] = {
        static_cast<double>(er.events) / completed(er), "count",
        er.result.completed};
    layers["sim.ns_per_event"] = {
        er.wallSec * 1e9 / static_cast<double>(er.events), "ns", er.events};
    layers["sim.mw_qps"] = {completed(mw) / mw.wallSec, "1/s",
                            mw.result.completed};
    layers["cluster.mem_gib.mw"] = {mw_mem, "GiB",
                                    mw.result.memoryGiB.size()};
    layers["cluster.scale_events"] = {
        static_cast<double>(er.result.scaleEvents), "count", 1};
    layers["cluster.peak_nodes.er"] = {
        static_cast<double>(er.result.peakNodes), "count", 1};
    layers["sla_viol_pct"] = {100.0 *
                                  static_cast<double>(er.result.slaViolations) /
                                  completed(er),
                              "%", er.result.completed};
    layers["sim.mw_sla_viol_pct"] = {
        100.0 * static_cast<double>(mw.result.slaViolations) / completed(mw),
        "%", mw.result.completed};
}

} // namespace perfbench
