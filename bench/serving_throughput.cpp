/**
 * @file
 * End-to-end concurrent serving throughput sweep: builds the full
 * functional stack (bucketizers, sparse shard servers, dense frontend)
 * on a runtime::Executor at each worker count, drives it closed-loop
 * through the QueryDispatcher, and reports QPS, latency quantiles (from
 * obs::QuantileSketch) and the coalesced batch-size histogram.
 *
 * Machine-readable output goes to BENCH_serving.json (override with
 * --out); the CI perf gate compares it against
 * bench/baselines/BENCH_serving.json with tools/benchdiff:
 *
 *     serving_throughput --quick --out BENCH_serving.json
 *     erec_benchdiff bench/baselines/BENCH_serving.json \
 *         BENCH_serving.json --tolerance 15%
 *
 * Flags:
 *   --quick           small query count for CI (default full run)
 *   --threads CSV     worker counts to sweep (default 1,2,4)
 *   --queries N       queries per sweep point (overrides --quick)
 *   --out PATH        JSON output path (default BENCH_serving.json)
 *   --throttle-us N   sleep N us between submissions — deliberately
 *                     depresses QPS so CI can demonstrate the
 *                     benchdiff regression gate firing
 *   --trace-sample N  causal tracing: sample every Nth query into the
 *                     flight recorder and measure its cost. Each sweep
 *                     point runs three adjacent untraced/traced window
 *                     pairs and reports the minimum pairwise
 *                     trace_overhead_pct = (qps - qps_traced) / qps;
 *                     the CI gate pins it at <= 5% for N = 100 and
 *                     allocs_per_query (measured traced) at zero
 *   --metrics-out DIR dump the obs registry per sweep point; with
 *                     --trace-sample also the traced window's spans
 *                     (`<stem>_traces.jsonl` + `<stem>_perfetto.json`,
 *                     which erec_report attributes per stage)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/common/table_printer.h"
#include "elasticrec/model/dlrm.h"
#include "elasticrec/obs/export.h"
#include "elasticrec/obs/sketch.h"
#include "elasticrec/rpc/channel.h"
#include "elasticrec/serving/stack_builder.h"
#include "elasticrec/workload/query_generator.h"

namespace erec::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchOptions
{
    std::vector<std::size_t> threads = {1, 2, 4};
    std::size_t queries = 2000;
    std::string out = "BENCH_serving.json";
    std::string metricsOut;
    std::uint64_t throttleUs = 0;
    std::uint64_t traceSample = 0;
    bool quick = false;
};

/** One sweep point's measurements. */
struct SweepResult
{
    std::size_t threads = 0;
    std::size_t queries = 0;
    double qps = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double maxMs = 0.0;
    double meanBatch = 0.0;
    /** Heap allocations per query inside the AllocGate regions of the
     *  steady-state path (queue, pool dequeue, pump, gathers) — gated
     *  at exactly zero by the CI perf gate. With --trace-sample this is
     *  measured in the traced window, so span recording itself must
     *  stay allocation-free. */
    double allocsPerQuery = 0.0;
    /** Best traced-window throughput (0 when tracing is off). */
    double qpsTraced = 0.0;
    /** Throughput cost of tracing: (qps - qps_traced) / qps * 100,
     *  clamped at 0. Always emitted; 0 when tracing is off. */
    double traceOverheadPct = 0.0;
    std::vector<std::uint64_t> batchHist;
};

BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            opts.quick = true;
            opts.queries = 300;
        } else if (arg == "--queries" && i + 1 < argc) {
            opts.queries =
                static_cast<std::size_t>(std::stoull(argv[++i]));
        } else if (arg == "--threads" && i + 1 < argc) {
            opts.threads.clear();
            std::string csv = argv[++i];
            std::size_t pos = 0;
            while (pos < csv.size()) {
                const std::size_t comma = csv.find(',', pos);
                const std::string tok =
                    csv.substr(pos, comma == std::string::npos
                                        ? std::string::npos
                                        : comma - pos);
                opts.threads.push_back(
                    static_cast<std::size_t>(std::stoull(tok)));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            ERC_CHECK(!opts.threads.empty(),
                      "--threads needs at least one worker count");
        } else if (arg == "--out" && i + 1 < argc) {
            opts.out = argv[++i];
        } else if (arg == "--throttle-us" && i + 1 < argc) {
            opts.throttleUs = std::stoull(argv[++i]);
        } else if (arg == "--trace-sample" && i + 1 < argc) {
            opts.traceSample = std::stoull(argv[++i]);
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            opts.metricsOut = argv[++i];
        } else {
            erec::fatal("unknown bench flag: " + arg);
        }
    }
    for (const std::size_t t : opts.threads)
        ERC_CHECK(t >= 1, "--threads entries must be >= 1");
    return opts;
}

/** A serving-scale (not figure-scale) model: big enough that shard
 *  gathers dominate, small enough for a CI quick run. */
model::DlrmConfig
benchConfig()
{
    auto c = model::rm1();
    c.name = "bench";
    c.rowsPerTable = 8192;
    c.numTables = 4;
    c.poolingFactor = 16;
    c.batchSize = 4;
    return c;
}

/** Run one sweep point: a stack on `t` executor workers, closed-loop
 *  submission with a bounded in-flight window. */
SweepResult
runPoint(const std::shared_ptr<const model::Dlrm> &dlrm,
         const BenchOptions &opts, std::size_t t,
         std::uint64_t sample_every)
{
    const auto &config = dlrm->config();
    auto registry = std::make_shared<obs::Registry>();
    runtime::ExecutorOptions exec_opts;
    exec_opts.workers = t;
    exec_opts.maxBatchSize = 8;
    auto stack = serving::buildElasticRecStack(
        dlrm,
        {serving::TablePlan{.boundaries = {config.rowsPerTable / 64,
                                           config.rowsPerTable / 8,
                                           config.rowsPerTable}}},
        {.observability = registry,
         .executor = std::make_shared<runtime::Executor>(exec_opts),
         .traceSampleEvery = sample_every});

    workload::QueryShape shape;
    shape.batchSize = config.batchSize;
    shape.numTables = config.numTables;
    shape.gathersPerItem = config.poolingFactor;
    workload::QueryGenerator gen(
        shape,
        std::make_shared<workload::LocalityDistribution>(
            config.rowsPerTable, 0.9),
        /*seed=*/42);

    // Warm-up: touch every shard path once before the timed window,
    // then zero the alloc-tracker regions so the timed window measures
    // only steady-state allocations.
    for (int i = 0; i < 16; ++i)
        stack.submit(gen.next()).get();
    resetAllocRegionStats();

    obs::QuantileSketch latency_ms(0.01);
    const std::size_t window = std::max<std::size_t>(4, 4 * t);
    std::deque<std::pair<Clock::time_point,
                         std::future<std::vector<float>>>>
        inflight;
    const auto drainOldest = [&]() {
        auto [start, fut] = std::move(inflight.front());
        inflight.pop_front();
        fut.get();
        latency_ms.insert(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count());
    };

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < opts.queries; ++i) {
        if (opts.throttleUs > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(opts.throttleUs));
        inflight.emplace_back(Clock::now(), stack.submit(gen.next()));
        if (inflight.size() >= window)
            drainOldest();
    }
    while (!inflight.empty())
        drainOldest();
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - t0).count();

    SweepResult r;
    r.threads = t;
    r.queries = opts.queries;
    r.qps = static_cast<double>(opts.queries) / elapsed_s;
    r.p50Ms = latency_ms.quantile(0.50);
    r.p95Ms = latency_ms.quantile(0.95);
    r.maxMs = latency_ms.maxValue();
    r.meanBatch = stack.dispatcher->meanBatchSize();
    std::uint64_t region_allocs = 0;
    for (const auto &stats : allocRegionStats())
        region_allocs += stats.allocs;
    r.allocsPerQuery = static_cast<double>(region_allocs) /
                       static_cast<double>(opts.queries);
    r.batchHist = stack.dispatcher->batchSizeHistogram();

    // Drain first: a query's root span is recorded after its future
    // resolves, so the recorder is complete only once serving stops.
    stack.dispatcher->drain();
    if (!opts.metricsOut.empty()) {
        stack.publishStats();
        const std::vector<obs::SpanEvent> spans =
            stack.recorder != nullptr ? stack.recorder->drain()
                                      : std::vector<obs::SpanEvent>{};
        obs::writeMetricsFiles(
            opts.metricsOut, "serving_t" + std::to_string(t), *registry,
            {.spans = spans.empty() ? nullptr : &spans});
    }
    return r;
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** Deterministic-format JSON for tools/benchdiff: one sweep entry per
 *  worker count, keyed by "threads". */
void
writeJson(const std::string &path, const BenchOptions &opts,
          const std::vector<SweepResult> &sweep)
{
    std::ofstream out(path);
    ERC_CHECK(out.good(), "cannot open bench output file " << path);
    out << "{\n";
    out << "  \"bench\": \"serving_throughput\",\n";
    out << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n";
    out << "  \"throttle_us\": " << opts.throttleUs << ",\n";
    out << "  \"trace_sample\": " << opts.traceSample << ",\n";
    out << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &r = sweep[i];
        out << "    {\"threads\": " << r.threads
            << ", \"queries\": " << r.queries
            << ", \"qps\": " << jsonNum(r.qps)
            << ", \"p50_ms\": " << jsonNum(r.p50Ms)
            << ", \"p95_ms\": " << jsonNum(r.p95Ms)
            << ", \"max_ms\": " << jsonNum(r.maxMs)
            << ", \"mean_batch\": " << jsonNum(r.meanBatch)
            << ", \"allocs_per_query\": " << jsonNum(r.allocsPerQuery)
            << ", \"qps_traced\": " << jsonNum(r.qpsTraced)
            << ", \"trace_overhead_pct\": "
            << jsonNum(r.traceOverheadPct)
            << ", \"batch_hist\": [";
        for (std::size_t k = 0; k < r.batchHist.size(); ++k)
            out << (k ? ", " : "") << r.batchHist[k];
        out << "]}" << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    const double first = sweep.front().qps;
    const double last = sweep.back().qps;
    out << "  \"scaling\": "
        << jsonNum(first > 0.0 ? last / first : 0.0) << "\n";
    out << "}\n";
    ERC_CHECK(out.good(), "failed writing bench output " << path);
}

/** What the runtime's request coalescing buys on the RPC cost model:
 *  a batch of n lookups pays the per-call gRPC overhead once. */
void
printBatchingModel()
{
    const rpc::Channel ch(hw::NetworkLink(12.5e9, 5));
    const Bytes req = 512, resp = 2048;
    TablePrinter t({"batch", "n x roundTrip (us)", "batched (us)",
                    "saving"});
    for (const std::size_t n : {1UL, 4UL, 8UL, 16UL}) {
        const auto individual =
            static_cast<double>(n) *
            static_cast<double>(ch.roundTrip(req, resp));
        const auto batched =
            static_cast<double>(ch.batchedRoundTrip(n, req, resp));
        t.addRow({TablePrinter::num(static_cast<std::int64_t>(n)),
                  TablePrinter::num(individual, 0),
                  TablePrinter::num(batched, 0),
                  TablePrinter::percent(1.0 - batched / individual)});
    }
    t.print(std::cout);
}

int
run(int argc, char **argv)
{
    quietLogs();
    const BenchOptions opts = parseArgs(argc, argv);
    banner("Concurrent serving throughput (runtime executor sweep)",
           "DESIGN.md section 8 (no paper figure; CI perf gate input)");
    std::cout << "queries/point: " << opts.queries
              << "  threads:";
    for (const std::size_t t : opts.threads)
        std::cout << " " << t;
    if (opts.throttleUs > 0)
        std::cout << "  [THROTTLED " << opts.throttleUs << " us/query]";
    if (opts.traceSample > 0)
        std::cout << "  trace-sample: 1/" << opts.traceSample;
    std::cout << "\n\n";

    const auto dlrm = std::make_shared<model::Dlrm>(benchConfig());
    std::vector<SweepResult> sweep;
    for (const std::size_t t : opts.threads) {
        SweepResult r = runPoint(dlrm, opts, t, 0);
        if (opts.traceSample > 0) {
            // Overhead is the difference of two closed-loop windows,
            // which is hopelessly noisy under CI's shared CPUs if
            // measured once: a single scheduler hiccup swamps the few
            // percent being gated. Run adjacent untraced/traced pairs
            // and keep the *minimum* pairwise overhead — a systematic
            // cost (tracing genuinely slowing the hot path) shows up
            // in every pair, while a noise spike must hit all three
            // pairs the same way to leak through.
            double overhead = 0.0;
            for (int rep = 0; rep < 3; ++rep) {
                const SweepResult u = runPoint(dlrm, opts, t, 0);
                const SweepResult tr =
                    runPoint(dlrm, opts, t, opts.traceSample);
                r.qps = std::max(r.qps, u.qps);
                r.qpsTraced = std::max(r.qpsTraced, tr.qps);
                // Gate the stricter window: tracing ON must stay at
                // zero steady-state allocations.
                r.allocsPerQuery =
                    std::max(r.allocsPerQuery, tr.allocsPerQuery);
                const double pair =
                    u.qps > 0.0
                        ? std::max(0.0,
                                   (u.qps - tr.qps) / u.qps * 100.0)
                        : 0.0;
                overhead = rep == 0 ? pair : std::min(overhead, pair);
            }
            r.traceOverheadPct = overhead;
        }
        sweep.push_back(std::move(r));
    }

    TablePrinter table({"workers", "QPS", "p50 ms", "p95 ms", "max ms",
                        "mean batch", "allocs/q", "trace ov %"});
    for (const auto &r : sweep)
        table.addRow({TablePrinter::num(static_cast<std::int64_t>(
                          r.threads)),
                      TablePrinter::num(r.qps, 1),
                      TablePrinter::num(r.p50Ms, 3),
                      TablePrinter::num(r.p95Ms, 3),
                      TablePrinter::num(r.maxMs, 3),
                      TablePrinter::num(r.meanBatch, 2),
                      TablePrinter::num(r.allocsPerQuery, 3),
                      TablePrinter::num(r.traceOverheadPct, 2)});
    table.print(std::cout);
    const double scaling =
        sweep.front().qps > 0.0 ? sweep.back().qps / sweep.front().qps
                                : 0.0;
    std::cout << "QPS scaling " << sweep.front().threads << " -> "
              << sweep.back().threads << " workers: "
              << TablePrinter::ratio(scaling) << "\n\n";

    std::cout << "Modeled RPC round-trip cost of batch coalescing "
                 "(512 B req / 2 KiB resp):\n";
    printBatchingModel();

    writeJson(opts.out, opts, sweep);
    std::cout << "\nwrote " << opts.out << "\n";
    return 0;
}

} // namespace
} // namespace erec::bench

int
main(int argc, char **argv)
{
    return erec::bench::run(argc, argv);
}
