#pragma once

/**
 * @file
 * Concurrent serving executor: the facade the serving layer runs on.
 * An Executor bundles a fixed-size ThreadPool with the batching knobs
 * its request queue(s) use, behind one options struct, and publishes
 * occupancy/queue-depth statistics into an obs::Registry.
 *
 * Determinism contract:
 *  - workers == 0 ("serial mode"): there is no pool; submit() runs the
 *    callable inline on the caller's thread and parallelFor() is a
 *    plain loop. Every byte of output is identical to the pre-executor
 *    code path, which is what the byte-determinism tests pin.
 *  - workers > 0: callables run concurrently, but consumers that need
 *    reproducible floats keep them by construction — the serving layer
 *    computes per-shard partials in parallel and merges them in fixed
 *    shard order, so per-query outputs stay bit-identical to serial
 *    mode. Only cross-query interleaving (stat counter ordering, batch
 *    composition) is scheduling-dependent.
 *  - Causal tracing inherits both halves: span ids are slot-derived
 *    from TraceContext (never from a counter) and sampling follows
 *    submission order, so the canonical span forest of a traced run
 *    is byte-identical between serial and concurrent mode. Because a
 *    pump worker's nested parallelFor() degrades inline, only pump
 *    threads and the caller ever record spans — the recorder's
 *    per-thread ring count stays bounded by workers + 1.
 *
 * Nesting: parallelFor() called from a pool worker (e.g. a query
 * batch handler fanning out per-shard gathers) degrades to inline
 * execution instead of deadlocking on its own pool. Do not block an
 * external thread on parallelFor() while long-running pump tasks
 * occupy every worker (serving::QueryDispatcher documents this).
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "elasticrec/obs/metric.h"
#include "elasticrec/runtime/thread_pool.h"

namespace erec::runtime {

/** All executor knobs in one place (serving passes these through). */
struct ExecutorOptions
{
    /** Worker threads; 0 selects the deterministic serial mode. */
    std::size_t workers = 0;
    /** Most already-queued requests a worker takes in one batch. */
    std::size_t maxBatchSize = 8;
    /** Bounded request-queue capacity (producer backpressure). */
    std::size_t queueCapacity = 1024;
};

/** Point-in-time executor statistics (all snapshots). */
struct ExecutorStats
{
    std::size_t workers = 0;
    std::size_t queueDepth = 0;
    std::size_t busyWorkers = 0;
    std::uint64_t tasksExecuted = 0;
};

class Executor
{
  public:
    explicit Executor(ExecutorOptions options = {});

    /** True in serial mode (no pool; everything runs inline). */
    bool serial() const { return pool_ == nullptr; }

    std::size_t workers() const
    {
        return pool_ == nullptr ? 0 : pool_->numThreads();
    }

    const ExecutorOptions &options() const { return opts_; }

    /**
     * Run a callable: inline (already-ready future) in serial mode, on
     * the pool otherwise. Exceptions surface at future.get() in both
     * modes.
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        if (pool_ != nullptr)
            return pool_->submit(std::forward<F>(fn));
        std::packaged_task<R()> task(std::forward<F>(fn));
        task();
        return task.get_future();
    }

    /**
     * Run body(0..n-1), fork-join. Serial mode, n == 1, or a call from
     * a pool worker runs inline; otherwise the index space is strided
     * across the pool with the caller working too, and the call
     * returns after every index completed. The body must only write
     * disjoint state per index.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** Snapshot of pool occupancy and task counters. */
    ExecutorStats stats() const;

    /**
     * Publish the stats() snapshot as labelled gauges
     * (erec_executor_workers / _queue_depth / _busy_workers /
     * _tasks_executed). Call from one thread at a time — obs::Registry
     * handles are not internally synchronized.
     */
    void publishStats(obs::Registry &registry,
                      const obs::Labels &labels = {}) const;

    /** The underlying pool; null in serial mode. */
    ThreadPool *pool() { return pool_.get(); }

  private:
    ExecutorOptions opts_;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace erec::runtime
