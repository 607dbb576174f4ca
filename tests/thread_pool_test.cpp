/**
 * @file
 * Tests for runtime::ThreadPool: drain-on-shutdown must lose no task,
 * task exceptions must surface at future.get() (not kill a worker),
 * and onWorkerThread() must identify pool threads for the nested
 * fork-join degradation in Executor::parallelFor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/runtime/thread_pool.h"

namespace erec::runtime {
namespace {

TEST(ThreadPoolTest, SubmitDeliversResultsThroughFutures)
{
    ThreadPool pool(2);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
    EXPECT_EQ(pool.numThreads(), 2u);
}

TEST(ThreadPoolTest, ShutdownDrainsEveryQueuedTask)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        // Queue far more tasks than workers; none may be dropped when
        // the destructor runs while most are still queued.
        for (int i = 0; i < 200; ++i)
            pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
                ran.fetch_add(1, std::memory_order_relaxed);
            });
    }
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, TaskExceptionSurfacesAtGetAndWorkerSurvives)
{
    ThreadPool pool(1);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("task boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The worker that ran the throwing task must still serve others.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
    // A task that threw counts as executed too, before its future is
    // ready, so no wait is needed.
    EXPECT_EQ(pool.tasksExecuted(), 2u);
}

TEST(ThreadPoolTest, ReadyFutureIsAlwaysCounted)
{
    // The count is taken inside the task, before packaged_task readies
    // the future; a counter bumped by the worker afterwards could lag
    // the caller that has just woken from get().
    ThreadPool pool(2);
    for (std::uint64_t i = 1; i <= 2000; ++i) {
        pool.submit([] {}).get();
        ASSERT_EQ(pool.tasksExecuted(), i);
    }
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesPoolThreads)
{
    EXPECT_FALSE(ThreadPool::onWorkerThread());
    ThreadPool pool(1);
    EXPECT_TRUE(pool.submit([] {
                        return ThreadPool::onWorkerThread();
                    }).get());
    EXPECT_FALSE(ThreadPool::onWorkerThread());
}

TEST(ThreadPoolTest, ConcurrentSubmittersAllComplete)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c)
        clients.emplace_back([&pool, &ran] {
            std::vector<std::future<void>> futures;
            for (int i = 0; i < 50; ++i)
                futures.push_back(pool.submit([&ran] {
                    ran.fetch_add(1, std::memory_order_relaxed);
                }));
            for (auto &f : futures)
                f.get();
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(ran.load(), 4 * 50);
    EXPECT_EQ(pool.tasksExecuted(), 4u * 50u);
    EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(ThreadPoolTest, RejectsZeroWorkers)
{
    EXPECT_THROW(ThreadPool(0), ConfigError);
}

} // namespace
} // namespace erec::runtime
