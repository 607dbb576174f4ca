#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <future>
#include <stdexcept>

#include "elasticrec/common/rng.h"
#include "elasticrec/core/bucketizer.h"
#include "elasticrec/core/planner.h"
#include "elasticrec/hw/latency_model.h"
#include "elasticrec/serving/query_dispatcher.h"
#include "elasticrec/sim/experiment.h"
#include "elasticrec/workload/query_generator.h"
#include "serve.h"
#include "stats.h"

namespace perfbench {

using namespace erec;

namespace {

/** Shards per table on both workloads; per-shard metrics are s0..s3. */
constexpr std::size_t kShards = 4;
/** Steps of every ladder; per-step metrics are step0..step9. */
constexpr std::size_t kLadderSteps = 10;
/** Ladder steps whose latencies are reported (same on both ladders). */
constexpr std::size_t kLightStep = 0;
constexpr std::size_t kHeavyStep = 2;
/** Backlog readings per step. */
constexpr std::size_t kBacklogReadings = 16;
/**
 * Windows the light and heavy steps are each split into, spread over
 * the ladder: their gated metrics are medians over the windows the
 * host left alone (see quietMedian), so a host stall that lasts a few
 * seconds moves at most a minority of them.
 */
constexpr std::size_t kReportedWindows = 12;
/**
 * Requests a step sends at least, so its p99 has at least ten samples
 * beyond it: more for the light and heavy steps, whose latencies are
 * reported, than for the other steps and the tracing-overhead windows.
 */
constexpr std::uint64_t kReportedStepRequests = 2400;
constexpr std::uint64_t kOtherStepRequests = 1000;
/** Sampled correctness checks per window (against Dlrm::forward). */
constexpr std::size_t kChecksPerWindow = 32;

model::DlrmConfig
rm1Shaped(std::uint32_t tables, std::uint64_t rows, std::uint32_t batch,
          std::uint32_t pooling)
{
    auto c = model::rm1();
    c.numTables = tables;
    c.rowsPerTable = rows;
    c.batchSize = batch;
    c.poolingFactor = pooling;
    c.localityP = 0.9;
    return c;
}

double
toMs(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

double
toSec(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
toUs(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-3;
}

/** Static span names of the per-shard gathers, hottest shard first. */
const char *const kGatherSpan[kShards] = {
    "embedding.gather.s0", "embedding.gather.s1", "embedding.gather.s2",
    "embedding.gather.s3"};

} // namespace

ServeConfig
serveConfig(const std::string &workload)
{
    ServeConfig c;
    c.name = workload;
    if (workload == "serve_hot") {
        // Cache-resident tables: per-query fixed costs (dispatch,
        // batching, MLPs) dominate; gather-memory changes should not
        // move it.
        c.model = rm1Shaped(4, 8192, 4, 16);
        c.fixedBoundaries = {128, 1024, 4096, 8192};
        c.ladder = {6000,  15000, 24000, 33000, 37000,
                    41000, 45000, 49000, 53000, 57000};
        c.p99LimitMs = 5.0;
        c.poolSize = 4096;
        c.probeQueries = 512;
        c.setUpBetweenSteps = true;
    } else if (workload == "serve_cold") {
        // Paper-scale tables (2.4 GiB each): DRAM gathers dominate, so
        // embedding and kernel changes show here.
        c.model = rm1Shaped(2, 20'000'000, 32, 128);
        c.plannedBoundaries = true;
        c.ladder = {300,  800,  1100, 1500, 1700,
                    1900, 2100, 2300, 2500, 2700};
        c.p99LimitMs = 25.0;
        c.poolSize = 1024;
        c.probeQueries = 256;
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    if (c.ladder.size() != kLadderSteps)
        throw std::logic_error("ladder must have 10 steps");
    return c;
}

/** One request's timestamps (steady clock, ns). */
struct RequestTimes
{
    std::int64_t due = 0;
    std::int64_t sent = 0;
    std::int64_t serveStart = 0;
    std::int64_t serveEnd = 0;
    /** When the generator saw the future ready (traced runs only). */
    std::int64_t seen = 0;
};

/** Process CPU time not spent on the calling (generator) thread, ns. */
std::int64_t
otherThreadsCpuNs()
{
    return cpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpuNs(CLOCK_THREAD_CPUTIME_ID);
}

/** One window at one rate: its raw per-request times and tallies. */
struct ServeWorkload::StepRun
{
    double offeredQps = 0.0;
    std::vector<RequestTimes> times;
    std::uint64_t idBase = 0;
    std::uint64_t failed = 0;
    double durationSec = 0.0;
    bool backlogGrowing = false;
    /** Coalesced batches the dispatcher served. */
    std::uint64_t batches = 0;
    /** CPU time of every thread but the generator's, ns. */
    std::int64_t workerCpuNs = 0;
    /** Share of the guest's CPU time the hypervisor stole. */
    double stealShare = 0.0;
};

StepResult
ServeWorkload::summarize(const std::vector<StepRun> &windows)
{
    StepResult r;
    std::vector<double> latency_ms, late_ms;
    std::int64_t cpu_ns = 0;
    for (const auto &w : windows) {
        r.offeredQps = w.offeredQps;
        r.sent += w.times.size();
        r.failed += w.failed;
        r.durationSec += w.durationSec;
        r.backlogGrowing = r.backlogGrowing || w.backlogGrowing;
        cpu_ns += w.workerCpuNs;
        for (const auto &t : w.times) {
            latency_ms.push_back(toMs(t.serveEnd - t.due));
            late_ms.push_back(toMs(t.sent - t.due));
        }
    }
    const auto n = static_cast<double>(r.sent);
    r.achievedQps = n / r.durationSec;
    r.p50Ms = quantile(latency_ms, 0.50);
    r.p99Ms = quantile(std::move(latency_ms), 0.99);
    r.beyondP99 = samplesBeyond(r.sent, 0.99);
    r.lateP99Ms = quantile(std::move(late_ms), 0.99);
    r.workerCpuUs = toUs(cpu_ns) / n;
    return r;
}

ServeWorkload::ServeWorkload(ServeConfig config, SpanLog *log)
    : config_(std::move(config))
{
    dlrm_ = std::make_shared<model::Dlrm>(config_.model);
    if (config_.plannedBoundaries) {
        const auto planner =
            core::Planner::forPlatform(config_.model, hw::cpuOnlyNode());
        const std::int64_t t0 = nowNs();
        const auto plan = planner.planElasticRec(
            {sim::cdfFor(config_.model, 1024)});
        if (log != nullptr)
            log->add("core.plan", 0, 0, t0, nowNs());
        for (const auto *s : plan.tableShards(0))
            boundaries_.push_back(s->endRow);
    } else {
        boundaries_ = config_.fixedBoundaries;
    }
    if (boundaries_.size() != kShards)
        throw std::runtime_error(
            config_.name + ": expected 4 shards per table, got " +
            std::to_string(boundaries_.size()));
    stack_ = serving::buildElasticRecStack(
        dlrm_, {serving::TablePlan{.boundaries = boundaries_}});
    // Wired as buildElasticRecStack does when given an executor, but
    // with a dispatcher the benchmark owns (see runStep).
    executor_ = std::make_shared<runtime::Executor>(
        runtime::ExecutorOptions{.workers = kWorkers});
    stack_.frontend->attachExecutor(executor_);
}

const char *
ServeWorkload::kernelBackend() const
{
    return stack_.kernelBackend->name();
}

ServeWorkload::StepRun
ServeWorkload::runStep(const Pool &pool, double rate, double seconds,
                       std::uint64_t min_requests, std::uint64_t step_seed,
                       bool traced)
{
    const auto n = std::max<std::uint64_t>(
        min_requests,
        static_cast<std::uint64_t>(std::ceil(rate * seconds)));
    std::vector<std::int64_t> offsets(n);
    {
        Rng rng(step_seed);
        double t = 0.0;
        for (auto &o : offsets) {
            t += rng.exponential(rate);
            o = static_cast<std::int64_t>(t * 1e9);
        }
    }

    StepRun run;
    run.offeredQps = rate;
    run.idBase = nextQueryId_;
    nextQueryId_ += n;
    run.times.resize(n);
    std::atomic<std::uint64_t> completed{0};
    RequestTimes *times = run.times.data();
    const std::uint64_t id_base = run.idBase;
    auto frontend = stack_.frontend;
    // Completion is stamped inside the serve function, so a request's
    // latency does not wait for the generator to look at its future.
    serving::QueryDispatcher dispatcher(
        [frontend, times, id_base, &completed](const workload::Query &q) {
            RequestTimes &r = times[q.id - id_base];
            r.serveStart = nowNs();
            auto out = frontend->serve(q);
            r.serveEnd = nowNs();
            completed.fetch_add(1, std::memory_order_relaxed);
            return out;
        },
        executor_);

    std::vector<std::future<std::vector<float>>> futures(n);
    std::vector<std::uint32_t> pending;
    std::size_t cursor = 0;
    const auto poll = [&](std::int64_t now) {
        // Traced runs only: stamp when each future is seen ready.
        for (int k = 0; k < 64 && !pending.empty(); ++k) {
            cursor %= pending.size();
            const std::uint32_t j = pending[cursor];
            if (futures[j].wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                times[j].seen = now;
                pending[cursor] = pending.back();
                pending.pop_back();
            } else {
                ++cursor;
            }
        }
    };

    std::vector<BacklogSample> backlog;
    const std::uint64_t reading_every =
        std::max<std::uint64_t>(1, n / kBacklogReadings);
    const std::int64_t start = nowNs() + 1'000'000;
    const std::int64_t worker_cpu0 = otherThreadsCpuNs();
    const double steal0 = stealMs();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::int64_t due = start + offsets[i];
        std::int64_t now = nowNs();
        while (now < due) {
            if (traced)
                poll(now);
            now = nowNs();
        }
        times[i].due = due;
        times[i].sent = now;
        workload::Query q = pool[i % pool.size()];
        q.id = id_base + i;
        futures[i] = dispatcher.submit(std::move(q));
        if (traced)
            pending.push_back(static_cast<std::uint32_t>(i));
        if (i % reading_every == reading_every - 1) {
            const std::int64_t t = nowNs();
            const auto due_count = static_cast<double>(
                std::upper_bound(offsets.begin(), offsets.end(),
                                 t - start) -
                offsets.begin());
            backlog.push_back(
                {toSec(t - start),
                 due_count - static_cast<double>(completed.load(
                                 std::memory_order_relaxed))});
        }
    }
    while (traced && !pending.empty())
        poll(nowNs());

    std::vector<std::vector<float>> responses(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        try {
            responses[i] = futures[i].get();
        } catch (const std::exception &) {
            ++run.failed;
        }
    }
    run.workerCpuNs = otherThreadsCpuNs() - worker_cpu0;
    const double steal_ms = stealMs() - steal0;
    dispatcher.drain();
    run.batches = dispatcher.batchesServed();

    // Sampled correctness check, untimed: every checked response must
    // match the monolithic model on the same inputs.
    const std::uint64_t check_every =
        std::max<std::uint64_t>(1, n / kChecksPerWindow);
    const std::uint32_t batch = config_.model.batchSize;
    for (std::uint64_t i = 0; i < n; i += check_every) {
        if (responses[i].empty())
            continue; // already counted as failed
        const auto &lookups = pool[i % pool.size()].lookups;
        const auto ref = dlrm_->forward(
            dlrm_->syntheticDenseInput(id_base + i, batch), lookups, batch,
            *stack_.kernelBackend);
        if (!responseMatches(responses[i], ref))
            ++run.failed;
    }

    std::int64_t last_end = start;
    for (const auto &t : run.times)
        last_end = std::max(last_end, t.serveEnd);
    run.durationSec = toSec(last_end - start);
    run.stealShare = stealShare(steal_ms, run.durationSec);
    run.backlogGrowing = backlogGrows(backlog, rate);
    return run;
}

void
ServeWorkload::run(const RunOptions &opts, Report &e2e, Report &layers,
                   Outcome &outcome, SpanLog &log,
                   const std::function<void()> &after_step)
{
    const auto &m = config_.model;
    Pool pool;
    {
        workload::QueryShape shape;
        shape.batchSize = m.batchSize;
        shape.numTables = m.numTables;
        shape.gathersPerItem = m.poolingFactor;
        workload::QueryGenerator gen(
            shape,
            std::make_shared<workload::LocalityDistribution>(
                m.rowsPerTable, m.localityP),
            opts.seed);
        pool.reserve(config_.poolSize);
        for (std::size_t i = 0; i < config_.poolSize; ++i)
            pool.push_back(gen.next());
    }

    // Untimed warm-up: half a second at the heavy rate.
    runStep(pool, config_.ladder[kHeavyStep], 0.5, 0,
            opts.seed ^ 0x5EED, false);

    // The light and heavy steps carry the gated metrics, so they get
    // twice the time of the others, split into kReportedWindows windows
    // each. Round r runs one light and one heavy window, then its share
    // of the other steps, so the windows are spread over the ladder.
    double weights = 0.0;
    std::vector<std::size_t> others;
    for (std::size_t k = 0; k < kLadderSteps; ++k) {
        const bool reported = k == kLightStep || k == kHeavyStep;
        weights += reported ? 2.0 : 1.0;
        if (!reported)
            others.push_back(k);
    }
    std::vector<std::vector<StepRun>> steps(kLadderSteps);
    const auto run_window = [&](std::size_t k, std::size_t r) {
        const bool reported = k == kLightStep || k == kHeavyStep;
        const double share = reported ? 2.0 / kReportedWindows : 1.0;
        steps[k].push_back(runStep(
            pool, config_.ladder[k], opts.seconds * share / weights,
            reported ? kReportedStepRequests / kReportedWindows
                     : kOtherStepRequests,
            opts.seed * 1000 + k * kReportedWindows + r, opts.trace));
        after_step();
    };
    for (std::size_t r = 0; r < kReportedWindows; ++r) {
        run_window(kLightStep, r);
        run_window(kHeavyStep, r);
        for (std::size_t i = r * others.size() / kReportedWindows;
             i < (r + 1) * others.size() / kReportedWindows; ++i)
            run_window(others[i], 0);
    }
    std::vector<StepResult> results;
    for (const auto &windows : steps)
        results.push_back(summarize(windows));

    std::uint64_t sent = 0, failed = 0;
    for (const auto &r : results) {
        sent += r.sent;
        failed += r.failed;
    }
    outcome.attempted += sent;
    outcome.failed += failed;
    if (failed > 0)
        outcome.correct = false;

    const int gp = goodputStep(results, config_.p99LimitMs);
    std::printf("%-6s %9s %8s %10s %9s %9s %9s %9s %8s %s\n", "step",
                "offered", "sent", "achieved", "p50_ms", "p99_ms", "late_p99",
                "cpu_us/q", "backlog", "slo");
    for (std::size_t k = 0; k < results.size(); ++k) {
        const StepResult &r = results[k];
        std::printf("%-6zu %9.0f %8llu %10.1f %9.3f %9.3f %9.3f %9.2f %8s %s\n",
                    k, r.offeredQps, static_cast<unsigned long long>(r.sent),
                    r.achievedQps, r.p50Ms, r.p99Ms, r.lateP99Ms,
                    r.workerCpuUs,
                    r.backlogGrowing ? "grows" : "ok",
                    meetsSlo(r, config_.p99LimitMs)
                        ? (static_cast<int>(k) == gp ? "pass*" : "pass")
                        : "miss");
    }
    const StepResult &light = results[kLightStep];
    const StepResult &heavy = results[kHeavyStep];
    const double goodput =
        gp < 0 ? 0.0 : results[static_cast<std::size_t>(gp)].achievedQps;
    // Gated: medians over the quiet windows (see kReportedWindows).
    std::vector<WindowReading> light_p50, heavy_cpu;
    std::printf("gated windows (value, steal %%):\n");
    for (const std::size_t k : {kLightStep, kHeavyStep}) {
        std::printf("  step %zu:", k);
        for (const auto &w : steps[k]) {
            const StepResult r = summarize({w});
            const double value = k == kLightStep ? r.p50Ms : r.workerCpuUs;
            (k == kLightStep ? light_p50 : heavy_cpu)
                .push_back({value, w.stealShare});
            std::printf(" %.4g (%.1f)", value, 100.0 * w.stealShare);
        }
        std::printf("\n");
    }
    // Every window of a step sends the same number of requests.
    std::size_t light_kept = 0, heavy_kept = 0;
    const double light_value = quietMedian(light_p50, &light_kept);
    const double heavy_value = quietMedian(heavy_cpu, &heavy_kept);
    e2e["p50_ms.light"] = {light_value, "ms",
                           light.sent / kReportedWindows * light_kept};
    e2e["cpu_us_per_query.heavy"] = {
        heavy_value, "us", heavy.sent / kReportedWindows * heavy_kept};
    std::printf("quiet windows kept: light %zu of %zu, heavy %zu of %zu\n",
                light_kept, light_p50.size(), heavy_kept, heavy_cpu.size());
    {
        // How much of the ladder's guest CPU time the host took.
        double stolen = 0.0, seconds = 0.0;
        for (const auto &windows : steps)
            for (const auto &w : windows) {
                stolen += w.stealShare * w.durationSec;
                seconds += w.durationSec;
            }
        layers["host.steal_pct"] = {100.0 * stolen / seconds, "%", sent};
    }
    // Too unsteady between runs on a shared host to gate (see NOTES.md),
    // so reported with the per-layer metrics.
    layers["goodput_qps"] = {
        goodput, "1/s",
        gp < 0 ? 0 : results[static_cast<std::size_t>(gp)].sent};
    layers["p99_ms.light"] = {light.p99Ms, "ms", light.sent};
    layers["p50_ms.heavy"] = {heavy.p50Ms, "ms", heavy.sent};
    layers["p99_ms.heavy"] = {heavy.p99Ms, "ms", heavy.sent};
    layers["fail_frac"] = {static_cast<double>(failed) /
                               static_cast<double>(sent),
                           "ratio", sent};

    for (std::size_t k = 0; k < kLadderSteps; ++k) {
        const std::string s = ".step" + std::to_string(k);
        layers["workload.late_ms.p99" + s] = {results[k].lateP99Ms, "ms",
                                              results[k].sent};
        layers["workload.sent" + s] = {
            static_cast<double>(results[k].sent), "count", 1};
        layers["workload.failed" + s] = {
            static_cast<double>(results[k].failed), "count", 1};
    }

    // Queueing and hand-off at the heavy rate, serve time at the light
    // rate (where it is closest to an uncontended call).
    {
        std::vector<double> queue_us, handoff_us;
        std::uint64_t heavy_batches = 0;
        for (const auto &w : steps[kHeavyStep]) {
            heavy_batches += w.batches;
            for (const auto &t : w.times) {
                queue_us.push_back(toUs(t.serveStart - t.sent));
                if (t.seen != 0)
                    handoff_us.push_back(toUs(t.seen - t.serveEnd));
            }
        }
        layers["runtime.queue_us.p50"] = {quantile(queue_us, 0.5), "us",
                                          queue_us.size()};
        layers["runtime.queue_us.p99"] = {quantile(queue_us, 0.99), "us",
                                          queue_us.size()};
        layers["runtime.batch_mean"] = {
            static_cast<double>(heavy.sent) /
                static_cast<double>(std::max<std::uint64_t>(1, heavy_batches)),
            "count", heavy.sent};
        layers["runtime.handoff_us.p50"] = {quantile(handoff_us, 0.5), "us",
                                            handoff_us.size()};
        layers["runtime.worker_us_at_goodput"] = {
            goodput > 0.0 ? static_cast<double>(kWorkers) * 1e6 / goodput
                          : 0.0,
            "us", 1};
        std::vector<double> serve_us;
        for (const auto &w : steps[kLightStep])
            for (const auto &t : w.times)
                serve_us.push_back(toUs(t.serveEnd - t.serveStart));
        layers["serving.serve_us.p50"] = {quantile(serve_us, 0.5), "us",
                                          serve_us.size()};
        layers["serving.serve_us.p99"] = {quantile(serve_us, 0.99), "us",
                                          serve_us.size()};
    }

    if (!opts.trace)
        return;

    for (const auto &windows : steps) {
        for (const StepRun &s : windows) {
            for (std::size_t i = 0; i < s.times.size(); ++i) {
                const RequestTimes &t = s.times[i];
                const std::uint64_t q = s.idBase + i;
                const std::uint32_t root =
                    log.add("request", q, 0, t.due, t.seen);
                log.add("runtime.queue", q, root, t.sent, t.serveStart);
                log.add("serving.serve", q, root, t.serveStart, t.serveEnd);
                log.add("runtime.handoff", q, root, t.serveEnd, t.seen);
            }
        }
    }

    // Tracing cost inside timed windows, which is only the generator's
    // completion polling (spans are built afterwards from stamps taken
    // in both modes): untraced and traced windows at the heavy rate in
    // the order U T T U (so drift cancels), compared on median latency.
    {
        const double rate = config_.ladder[kHeavyStep];
        double plain = 0.0, traced = 0.0;
        std::uint64_t sent = 0;
        for (int k = 0; k < 4; ++k) {
            const bool on = k == 1 || k == 2;
            const auto w = runStep(pool, rate, 1.0, kOtherStepRequests,
                                   opts.seed ^ (0xB50 + k), on);
            (on ? traced : plain) += summarize({w}).p50Ms;
            sent += w.times.size();
        }
        layers["obs.trace_overhead_pct"] = {100.0 * (traced - plain) / plain,
                                            "%", sent};
    }

    probe(pool, layers, outcome, log);
}

void
ServeWorkload::probe(const Pool &pool, Report &layers, Outcome &outcome,
                     SpanLog &log)
{
    // The probe and the serial serve timings run on the serial path:
    // no dispatcher is running now, so detaching is safe.
    stack_.frontend->attachExecutor(nullptr);
    const auto &m = config_.model;
    const auto &backend = *stack_.kernelBackend;
    const std::uint32_t batch = m.batchSize;
    const std::uint32_t dim = m.embeddingDim;
    const std::size_t count = config_.probeQueries;
    if (2 * count > pool.size())
        throw std::logic_error("probe samples exceed the query pool");

    std::vector<core::Bucketizer> bucketizers(
        m.numTables, core::Bucketizer(boundaries_));
    std::vector<workload::SparseLookup> buckets;
    std::vector<float> part;
    std::vector<std::vector<float>> pooled(m.numTables);

    std::vector<double> bottom_us, top_us, bucketize_us, sum_us, gathers_us;
    std::vector<std::vector<double>> gather_us(kShards);
    std::vector<double> gather_ns_total(kShards, 0.0);
    std::vector<std::uint64_t> rows_total(kShards, 0);
    std::uint64_t mismatches = 0;

    // Two disjoint samples, interleaved so both see the same cache and
    // host conditions: even pool entries are probed layer by layer,
    // odd ones time serve() whole. (Probing a query warms its rows, so
    // it must not be the query serve() is timed on.)
    std::vector<double> serial_us;
    for (std::size_t i = 0; i < count; ++i) {
        workload::Query q = pool[2 * i];
        q.id = nextQueryId_++;
        const auto dense = dlrm_->syntheticDenseInput(q.id, batch);
        const std::int64_t t_root = nowNs();
        const std::uint32_t root = log.add("probe", q.id, 0, t_root, t_root);

        std::int64_t t0 = nowNs();
        const auto bottom = dlrm_->runBottom(dense, batch, backend);
        std::int64_t t1 = nowNs();
        log.add("model.bottom", q.id, root, t0, t1);
        double probe_sum = static_cast<double>(t1 - t0);
        bottom_us.push_back(toUs(t1 - t0));

        double bucketize_ns = 0.0, gathers_ns = 0.0;
        std::vector<double> shard_ns(kShards, 0.0);
        for (std::uint32_t t = 0; t < m.numTables; ++t) {
            t0 = nowNs();
            bucketizers[t].bucketizeInto(q.lookups[t], &buckets);
            t1 = nowNs();
            log.add("core.bucketize", q.id, root, t0, t1);
            bucketize_ns += static_cast<double>(t1 - t0);
            pooled[t].assign(static_cast<std::size_t>(batch) * dim, 0.0f);
            for (std::uint32_t s = 0; s < kShards; ++s) {
                if (buckets[s].indices.empty())
                    continue;
                t0 = nowNs();
                stack_.shards[t][s]->gatherInto(buckets[s], &part);
                t1 = nowNs();
                log.add(kGatherSpan[s], q.id, root, t0, t1);
                shard_ns[s] += static_cast<double>(t1 - t0);
                rows_total[s] += buckets[s].indices.size();
                for (std::size_t k = 0; k < pooled[t].size(); ++k)
                    pooled[t][k] += part[k];
            }
        }
        for (std::size_t s = 0; s < kShards; ++s) {
            gather_us[s].push_back(shard_ns[s] * 1e-3);
            gather_ns_total[s] += shard_ns[s];
            gathers_ns += shard_ns[s];
        }
        bucketize_us.push_back(bucketize_ns * 1e-3);
        gathers_us.push_back(gathers_ns * 1e-3);

        t0 = nowNs();
        const auto out = dlrm_->interactAndPredict(bottom, pooled, batch,
                                                   backend);
        t1 = nowNs();
        log.add("model.top", q.id, root, t0, t1);
        top_us.push_back(toUs(t1 - t0));
        log.close(root, t1);
        probe_sum += bucketize_ns + gathers_ns + static_cast<double>(t1 - t0);
        sum_us.push_back(probe_sum * 1e-3);

        // Untimed: the composed layers must equal serve() bit for bit.
        if (stack_.frontend->serve(q) != out)
            ++mismatches;

        workload::Query whole = pool[2 * i + 1];
        whole.id = nextQueryId_++;
        t0 = nowNs();
        stack_.frontend->serve(whole);
        t1 = nowNs();
        log.add("serving.serve.serial", whole.id, 0, t0, t1);
        serial_us.push_back(toUs(t1 - t0));
    }

    outcome.attempted += count;
    outcome.failed += mismatches;
    if (mismatches > 0)
        outcome.correct = false;

    const hw::LatencyModel model(hw::cpuOnlyNode());
    const double n = static_cast<double>(count);
    layers["model.bottom_us"] = {median(bottom_us), "us", count};
    layers["model.top_us"] = {median(top_us), "us", count};
    layers["core.bucketize_us"] = {median(bucketize_us), "us", count};
    for (std::size_t s = 0; s < kShards; ++s) {
        const std::string k = ".s" + std::to_string(s);
        const double rows_per_query = static_cast<double>(rows_total[s]) / n;
        const double gather_med = median(gather_us[s]);
        layers["embedding.gather_us" + k] = {gather_med, "us", count};
        layers["embedding.rows" + k] = {rows_per_query, "count", count};
        const double ns_per_row =
            rows_total[s] > 0 ? gather_ns_total[s] /
                                    static_cast<double>(rows_total[s])
                              : 0.0;
        layers["embedding.ns_per_row" + k] = {ns_per_row, "ns", count};
        // Computed bytes: rows x dim x 4 per measured nanosecond.
        layers["kernels.gather_gbps" + k] = {
            ns_per_row > 0.0 ? static_cast<double>(dim) * 4.0 / ns_per_row
                             : 0.0,
            "GB/s", count};
        const double modeled_us = static_cast<double>(model.gatherCpuTime(
            static_cast<std::size_t>(std::llround(rows_per_query)),
            static_cast<Bytes>(dim) * 4, 1));
        layers["hw.gather_model_ratio" + k] = {
            gather_med > 0.0 ? modeled_us / gather_med : 0.0, "ratio",
            count};
    }
    const double mlp_us = median(bottom_us) + median(top_us);
    layers["hw.mlp_model_ratio"] = {
        static_cast<double>(model.denseCpuTime(m.denseFlopsPerQuery(), 1)) /
            mlp_us,
        "ratio", count};
    const double serial_med = median(serial_us);
    layers["serving.probe_sum_us"] = {median(sum_us), "us", count};
    layers["serving.other_us"] = {serial_med - median(sum_us), "us", count};
    layers["serving.gather_share_pct"] = {
        100.0 * median(gathers_us) / serial_med, "%", count};
}

} // namespace perfbench
