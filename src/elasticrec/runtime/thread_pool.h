#pragma once

/**
 * @file
 * Fixed-size worker thread pool: the only place in the library that is
 * allowed to construct std::thread (enforced by the `raw-thread` lint
 * rule). Every concurrent serving path funnels work through here so
 * thread counts stay an explicit, observable resource — the functional
 * analogue of the per-pod CPU requests the paper's Kubernetes setup
 * hands each microservice shard.
 *
 * Semantics:
 *  - submit() never drops work: the destructor drains every queued
 *    task before joining the workers.
 *  - submit() returns a std::future, so exceptions thrown by a task
 *    surface at future.get() instead of terminating a worker.
 *  - onWorkerThread() lets nested fork-join code (Executor::
 *    parallelFor) detect that it already runs on a pool worker and
 *    degrade to inline execution rather than deadlock waiting for a
 *    slot on the pool it occupies.
 */

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/thread_annotations.h"

namespace erec::runtime {

class ThreadPool
{
  public:
    /** @param num_threads Worker count; must be at least 1. */
    explicit ThreadPool(std::size_t num_threads);

    /** Drains all queued tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a callable; its result (or exception) is delivered
     * through the returned future. Submitting after destruction has
     * begun is a caller bug (ConfigError).
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        // One task handle per submission: steady-state serving submits
        // long-lived pump loops once, not per-query tasks. The task is
        // counted as executed before packaged_task readies its future
        // (the guard unwinds inside the task body, on a throw too), so
        // a caller whose future is ready always sees it counted.
        auto task = std::make_shared<std::packaged_task<R()>>( // ERC_HOT_PATH_ALLOW("one handle per submission; pumps are submitted once, fork-join degrades inline on pool workers")
            [this, fn = std::forward<F>(fn)]() mutable -> R {
                const ExecutedGuard counted{this};
                return fn();
            });
        std::future<R> future = task->get_future();
        post([task] { (*task)(); });
        return future;
    }

    std::size_t numThreads() const { return workers_.size(); }

    /** Tasks currently queued (excludes tasks being executed). */
    std::size_t queueDepth() const;

    /** Workers currently executing a task (pool occupancy). */
    std::size_t busyWorkers() const;

    /** Tasks completed since construction; a task whose submit()
     *  future is ready is always counted. */
    std::uint64_t tasksExecuted() const;

    /** True when called from one of this process' pool workers. */
    static bool onWorkerThread();

    /** Hardware threads of this host (at least 1), for sizing pools. */
    static std::size_t hardwareThreads();

  private:
    /** Counts one executed task when it goes out of scope. */
    struct ExecutedGuard
    {
        ThreadPool *pool = nullptr;
        ~ExecutedGuard() { pool->noteExecuted(); }
    };

    void noteExecuted();

    /** Type-erased enqueue behind the template submit(). */
    void post(std::function<void()> task);

    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_ ERC_GUARDED_BY(mutex_);
    bool stopping_ ERC_GUARDED_BY(mutex_) = false;
    std::size_t busy_ ERC_GUARDED_BY(mutex_) = 0;
    std::uint64_t executed_ ERC_GUARDED_BY(mutex_) = 0;
    std::vector<std::thread> workers_;
};

} // namespace erec::runtime
