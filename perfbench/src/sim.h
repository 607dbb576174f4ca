#pragma once

/**
 * @file
 * The simulation phase: plan RM1 on the paper's CPU-only node both
 * ways (ElasticRec and model-wise), then run both plans through the
 * raised-cosine 100 -> 500 QPS diurnal trace on the discrete-event
 * cluster simulator.
 */

#include <memory>

#include "bench.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/sim/cluster_sim.h"
#include "spans.h"

namespace perfbench {

class SimWorkload
{
  public:
    /**
     * The simulation set-up: both plans and both simulations. Planner
     * calls are recorded in `log` when it is non-null.
     */
    SimWorkload(std::uint64_t seed, SpanLog *log);

    /** Warm both simulations past the first peak, then time a window. */
    void run(const RunOptions &opts, Report &e2e, Report &layers,
             Outcome &outcome, SpanLog &log);

  private:
    erec::core::DeploymentPlan elasticRec_;
    erec::core::DeploymentPlan modelWise_;
    std::unique_ptr<erec::sim::ClusterSimulation> simEr_;
    std::unique_ptr<erec::sim::ClusterSimulation> simMw_;
};

} // namespace perfbench
