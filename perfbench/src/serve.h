#pragma once

/**
 * @file
 * The native serving phase: an ElasticRec stack built from the
 * library's public builders, driven open loop through a
 * benchmark-owned QueryDispatcher, plus the traced run's serial layer
 * probe.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "elasticrec/model/dlrm.h"
#include "elasticrec/serving/stack_builder.h"
#include "elasticrec/workload/query_generator.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/** What a serving workload runs. */
struct ServeConfig
{
    std::string name;
    erec::model::DlrmConfig model;
    /** Shard boundaries from core::Planner (else `fixedBoundaries`). */
    bool plannedBoundaries = false;
    std::vector<std::uint64_t> fixedBoundaries;
    /** Offered rates, ascending, queries per second. */
    std::vector<double> ladder;
    double p99LimitMs = 0.0;
    /** Distinct generated queries replayed with fresh ids. */
    std::size_t poolSize = 0;
    /** Queries in each of the probe's two disjoint samples. */
    std::size_t probeQueries = 0;
    /**
     * Time a repeat set-up after every ladder window, so the repeats
     * are spread over the run. Only where two set-ups fit in memory at
     * once; otherwise the repeats follow the serving phase.
     */
    bool setUpBetweenSteps = false;
};

/** The config of a serving workload; throws on an unknown name. */
ServeConfig serveConfig(const std::string &workload);

/** Executor workers; with the generator thread, 3 threads in all. */
inline constexpr std::size_t kWorkers = 2;

class ServeWorkload
{
  public:
    /**
     * The serving set-up: model and tables, planning (cold), stack
     * build. Planner calls are recorded in `log` when it is non-null.
     */
    ServeWorkload(ServeConfig config, SpanLog *log);

    const char *kernelBackend() const;

    /**
     * Build the query pool, run the ladder (and, traced, the overhead
     * windows and the probe), and report. `after_step` runs, untimed
     * by the ladder, after every ladder window.
     */
    void run(const RunOptions &opts, Report &e2e, Report &layers,
             Outcome &outcome, SpanLog &log,
             const std::function<void()> &after_step);

  private:
    /** Generated queries, replayed with fresh ids. */
    using Pool = std::vector<erec::workload::Query>;
    struct StepRun;

    /** A step's result over all of its windows' requests. */
    static StepResult summarize(const std::vector<StepRun> &windows);
    StepRun runStep(const Pool &pool, double rate, double seconds,
                    std::uint64_t min_requests, std::uint64_t step_seed,
                    bool traced);
    void probe(const Pool &pool, Report &layers, Outcome &outcome,
               SpanLog &log);

    ServeConfig config_;
    std::shared_ptr<erec::model::Dlrm> dlrm_;
    std::vector<std::uint64_t> boundaries_;
    erec::serving::ElasticRecStack stack_;
    /** Attached to the frontend; each step's dispatcher runs on it. */
    std::shared_ptr<erec::runtime::Executor> executor_;
    std::uint64_t nextQueryId_ = 1;
};

} // namespace perfbench
