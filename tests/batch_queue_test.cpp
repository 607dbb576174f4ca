/**
 * @file
 * Tests for runtime::BatchQueue: coalescing respects maxBatchSize and
 * FIFO order, a short batch returns at once, the capacity bound
 * backpressures producers, and close() drains cleanly.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "elasticrec/common/error.h"
#include "elasticrec/runtime/batch_queue.h"

namespace erec::runtime {
namespace {

BatchQueueOptions
opts(std::size_t capacity, std::size_t max_batch)
{
    BatchQueueOptions o;
    o.capacity = capacity;
    o.maxBatchSize = max_batch;
    return o;
}

TEST(BatchQueueTest, CoalescesFifoUpToMaxBatchSize)
{
    BatchQueue<int> q(opts(64, 4));
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(q.push(i));
    EXPECT_EQ(q.depth(), 10u);

    std::vector<int> seen;
    std::vector<std::size_t> batch_sizes;
    std::vector<int> batch;
    while (seen.size() < 10) {
        q.popBatch(&batch);
        ASSERT_FALSE(batch.empty());
        ASSERT_LE(batch.size(), 4u);
        batch_sizes.push_back(batch.size());
        seen.insert(seen.end(), batch.begin(), batch.end());
    }
    // Everything queued, in order, with full batches first.
    const std::vector<int> expect = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(seen, expect);
    EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{4, 4, 2}));
    EXPECT_EQ(q.totalPushed(), 10u);
}

TEST(BatchQueueTest, ShortBatchReturnsWithoutLingering)
{
    // One queued item against a batch of 8: popBatch hands it over at
    // once instead of waiting for stragglers, and a later push starts
    // the next batch.
    BatchQueue<int> q(opts(64, 8));
    ASSERT_TRUE(q.push(42));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<int> batch;
    q.popBatch(&batch);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch, (std::vector<int>{42}));
    EXPECT_LT(elapsed, std::chrono::seconds(1));
    ASSERT_TRUE(q.push(43));
    q.popBatch(&batch);
    EXPECT_EQ(batch, (std::vector<int>{43}));
}

TEST(BatchQueueTest, CapacityBoundBackpressuresProducer)
{
    BatchQueue<int> q(opts(2, 2));
    std::atomic<int> produced{0};
    std::thread producer([&] {
        for (int i = 0; i < 10; ++i) {
            ASSERT_TRUE(q.push(i)); // Blocks while at capacity.
            produced.fetch_add(1, std::memory_order_relaxed);
        }
    });
    std::vector<int> seen;
    std::vector<int> batch;
    while (seen.size() < 10) {
        // The bound holds at every observation point.
        EXPECT_LE(q.depth(), 2u);
        q.popBatch(&batch);
        seen.insert(seen.end(), batch.begin(), batch.end());
    }
    producer.join();
    EXPECT_EQ(produced.load(), 10);
    EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 45);
}

TEST(BatchQueueTest, CloseRejectsPushesAndDrainsBacklog)
{
    BatchQueue<int> q(opts(64, 4));
    ASSERT_TRUE(q.push(1));
    ASSERT_TRUE(q.push(2));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(3)); // Rejected, not queued.
    std::vector<int> batch;
    q.popBatch(&batch);
    EXPECT_EQ(batch, (std::vector<int>{1, 2}));
    q.popBatch(&batch);
    EXPECT_TRUE(batch.empty()); // Closed and drained.
    EXPECT_EQ(q.totalPushed(), 2u);
}

// The drain-then-empty shutdown contract (documented on popBatch):
// residual items queued before close() drain in FIFO order across as
// many batches as needed, and once drained every further pop returns
// empty.
TEST(BatchQueueTest, ShutdownDrainsResidualItemsThenStaysEmpty)
{
    BatchQueue<int> q(opts(64, 4));
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(q.push(i));
    q.close();

    std::vector<int> seen;
    std::vector<int> batch;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        q.popBatch(&batch);
        if (batch.empty())
            break;
        EXPECT_LE(batch.size(), 4u);
        seen.insert(seen.end(), batch.begin(), batch.end());
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;

    std::vector<int> expected(10);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(seen, expected);
    // 10 items / maxBatchSize 4 => a short final batch of 2, which a
    // closed queue flushes immediately.
    EXPECT_LT(elapsed, std::chrono::seconds(1));

    // Drained is terminal: every subsequent pop is empty.
    q.popBatch(&batch);
    EXPECT_TRUE(batch.empty());
    q.popBatch(&batch);
    EXPECT_TRUE(batch.empty());
    // close() is idempotent and does not disturb the drained state.
    q.close();
    q.popBatch(&batch);
    EXPECT_TRUE(batch.empty());
}

TEST(BatchQueueTest, CloseWakesBlockedConsumer)
{
    BatchQueue<int> q(opts(64, 4));
    std::thread consumer([&q] {
        std::vector<int> batch;
        q.popBatch(&batch);
        EXPECT_TRUE(batch.empty());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
    consumer.join();
}

TEST(BatchQueueTest, RejectsBadOptions)
{
    EXPECT_THROW(BatchQueue<int>(opts(0, 4)), ConfigError);
    EXPECT_THROW(BatchQueue<int>(opts(4, 0)), ConfigError);
}

} // namespace
} // namespace erec::runtime
