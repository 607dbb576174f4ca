#pragma once

/**
 * @file
 * Bounded MPMC queue with request coalescing: the admission path of
 * the concurrent serving executor. Producers push individual items
 * (lookup requests); consumers pop *batches*, letting a worker
 * amortize per-request overheads (RPC stack cost, cache warmup) the
 * way DeepRecSys-style serving stacks batch inference queries.
 *
 * Coalescing policy, per popBatch() call:
 *  - block until at least one item (or close()) is available;
 *  - take everything queued, up to maxBatchSize, and return at once.
 * A short batch never lingers for stragglers: the consumers serve a
 * batch's members one by one, so waiting would buy no amortization
 * and only delay the items already taken.
 *
 * The capacity bound gives producers backpressure: push() blocks while
 * the queue is full, so an overloaded executor slows its clients down
 * instead of growing an unbounded backlog (the functional analogue of
 * the simulator's bounded pod queues).
 *
 * Hot-path discipline: storage is a fixed ring buffer sized at
 * construction and popBatch() fills a caller-owned batch vector, so
 * the steady state allocates nothing — push/pop are wrapped in
 * AllocGate scopes charged to the "batch-queue" region, and the
 * `erec_analyze hotpath` static pass treats both as roots.
 */

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/common/hotpath.h"
#include "elasticrec/common/thread_annotations.h"

namespace erec::runtime {

/** Coalescing and backpressure knobs of a BatchQueue. */
struct BatchQueueOptions
{
    /** Maximum queued items before push() blocks (backpressure). */
    std::size_t capacity = 1024;
    /** Largest batch one popBatch() call returns. */
    std::size_t maxBatchSize = 8;
};

/** Region charged by the AllocGates inside push() and popBatch(). */
inline AllocRegion &
batchQueueRegion()
{
    static AllocRegion region("batch-queue");
    return region;
}

template <typename T>
class BatchQueue
{
  public:
    explicit BatchQueue(BatchQueueOptions options) : opts_(options)
    {
        ERC_CHECK(opts_.capacity >= 1, "queue capacity must be >= 1");
        ERC_CHECK(opts_.maxBatchSize >= 1, "max batch size must be >= 1");
        // All storage up front: the steady state never reallocates.
        ring_.resize(opts_.capacity);
    }

    /**
     * Enqueue one item, blocking while the queue is at capacity.
     * Returns false (item dropped) when the queue has been closed.
     */
    ERC_HOT_PATH
    bool push(T item)
    {
        const AllocGate gate(batchQueueRegion());
        std::unique_lock<std::mutex> lock(mutex_);
        while (size_ >= opts_.capacity && !closed_)
            notFull_.wait(lock);
        if (closed_)
            return false;
        ring_[(head_ + size_) % opts_.capacity] = std::move(item);
        ++size_;
        ++totalPushed_;
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Dequeue the next coalesced batch into `batch`: every queued item
     * up to maxBatchSize, FIFO, without waiting for more once at least
     * one is available. `batch` is cleared first and its capacity is
     * reused across calls (hence allocation-free once warm). An empty
     * result means the queue is closed and fully drained.
     *
     * Shutdown contract (drain-then-empty): items queued before
     * close() are never lost. Every popBatch() call after close()
     * returns residual items in FIFO order until the queue is empty,
     * and from then on returns an empty batch immediately. "Empty
     * batch" is therefore the one and only termination signal a
     * consumer needs.
     */
    ERC_HOT_PATH
    void popBatch(std::vector<T> *batch)
    {
        batch->clear();
        // No-op once the buffer ever reached maxBatchSize capacity.
        batch->reserve(opts_.maxBatchSize); // ERC_HOT_PATH_ALLOW("reserve-once: amortized to zero after the first pop")
        const AllocGate gate(batchQueueRegion());
        std::unique_lock<std::mutex> lock(mutex_);
        while (size_ == 0 && !closed_)
            notEmpty_.wait(lock);
        if (size_ == 0)
            return; // Closed and drained.
        while (batch->size() < opts_.maxBatchSize && size_ > 0) {
            // Bounded by the reserve() above: never grows.
            batch->push_back(std::move(ring_[head_])); // ERC_HOT_PATH_ALLOW("bounded by maxBatchSize; the caller's buffer is pre-reserved")
            head_ = (head_ + 1) % opts_.capacity;
            --size_;
        }
        notFull_.notify_all();
    }

    /**
     * Reject future pushes and wake every waiter. Items already queued
     * still drain through popBatch() — see the drain-then-empty
     * contract on popBatch(). Idempotent.
     */
    void close()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    std::size_t depth() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return size_;
    }

    bool closed() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Items accepted since construction (drops excluded). */
    std::uint64_t totalPushed() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return totalPushed_;
    }

    const BatchQueueOptions &options() const { return opts_; }

  private:
    const BatchQueueOptions opts_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    /** Fixed-size ring; [head_, head_+size_) mod capacity is live. */
    std::vector<T> ring_ ERC_GUARDED_BY(mutex_);
    std::size_t head_ ERC_GUARDED_BY(mutex_) = 0;
    std::size_t size_ ERC_GUARDED_BY(mutex_) = 0;
    bool closed_ ERC_GUARDED_BY(mutex_) = false;
    std::uint64_t totalPushed_ ERC_GUARDED_BY(mutex_) = 0;
};

} // namespace erec::runtime
