#include "elasticrec/serving/query_dispatcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"

namespace erec::serving {

namespace {

/** Charged by the gates around the pump loop's queue interactions. */
AllocRegion &
dispatcherPumpRegion()
{
    static AllocRegion region("dispatcher-pump");
    return region;
}

// Interned once at static-init time; hot-path records carry the ids.
const obs::NameId kQuerySpanName = obs::internSpanName("serving/query");
const obs::NameId kQueueSpanName = obs::internSpanName("serving/queue");
const obs::NameId kServeSpanName = obs::internSpanName("serving/serve");
const obs::NameId kBatchSpanName = obs::internSpanName("serving/batch");
const obs::NameId kBatchLinkName =
    obs::internSpanName("serving/batch_link");

} // namespace

QueryDispatcher::QueryDispatcher(
    ServeFn serve, std::shared_ptr<runtime::Executor> executor,
    std::shared_ptr<obs::FlightRecorder> recorder)
    : serve_(std::move(serve)), executor_(std::move(executor)),
      recorder_(std::move(recorder)),
      tracing_(recorder_ != nullptr && recorder_->enabled()),
      batchHist_(executor_ == nullptr ? 1
                                      : executor_->options().maxBatchSize)
{
    ERC_CHECK(serve_ != nullptr, "null serve function");
    ERC_CHECK(executor_ != nullptr, "null executor");
    if (executor_->serial())
        return; // Inline mode: no queue, no pumps.
    const auto &opts = executor_->options();
    runtime::BatchQueueOptions qopts;
    qopts.capacity = opts.queueCapacity;
    qopts.maxBatchSize = opts.maxBatchSize;
    queue_ = std::make_unique<runtime::BatchQueue<Job>>(qopts);
    pumps_.reserve(executor_->workers());
    for (std::size_t w = 0; w < executor_->workers(); ++w)
        pumps_.push_back(executor_->submit([this] { pumpLoop(); }));
}

QueryDispatcher::~QueryDispatcher()
{
    drain();
}

std::future<std::vector<float>>
QueryDispatcher::submit(workload::Query query)
{
    ERC_CHECK(!drained_.load(), "submit() on a drained dispatcher");
    Job job{std::move(query), {}, 0};
    if (tracing_) {
        // Deterministic every-Nth sampling in submission order: the
        // same queries are sampled whether the stack runs serial or
        // concurrent, which the byte-identical span-tree gate needs.
        job.query.trace = recorder_->maybeStartTrace();
        if (job.query.trace.sampled())
            job.submitUs = recorder_->nowUs();
    }
    auto future = job.result.get_future();
    if (queue_ == nullptr) {
        // Serial: serve inline on the caller's thread, byte-identical
        // to calling the serve function directly. The queue span is
        // recorded zero-width so serial and concurrent runs build the
        // same tree shape.
        if (job.query.trace.sampled())
            recorder_->recordSpan(job.query.trace.child(kQueueSlot),
                                  kQueueSpanName, job.submitUs,
                                  job.submitUs);
        serveJob(&job);
        batchesServed_.fetch_add(1, std::memory_order_relaxed);
        batchHist_[0].fetch_add(1, std::memory_order_relaxed);
        return future;
    }
    const bool accepted = queue_->push(std::move(job));
    ERC_ASSERT(accepted, "open dispatcher queue rejected a query");
    return future;
}

void
QueryDispatcher::drain()
{
    if (drained_.exchange(true))
        return;
    if (queue_ != nullptr)
        queue_->close();
    for (auto &p : pumps_)
        p.get();
    pumps_.clear();
}

std::uint64_t
QueryDispatcher::queriesServed() const
{
    return queriesServed_.load(std::memory_order_relaxed);
}

std::uint64_t
QueryDispatcher::batchesServed() const
{
    return batchesServed_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t>
QueryDispatcher::batchSizeHistogram() const
{
    std::vector<std::uint64_t> hist(batchHist_.size());
    for (std::size_t i = 0; i < hist.size(); ++i)
        hist[i] = batchHist_[i].load(std::memory_order_relaxed);
    return hist;
}

double
QueryDispatcher::meanBatchSize() const
{
    const std::uint64_t batches = batchesServed();
    if (batches == 0)
        return 0.0;
    return static_cast<double>(queriesServed()) /
           static_cast<double>(batches);
}

void
QueryDispatcher::publishStats(obs::Registry &registry,
                              const obs::Labels &labels) const
{
    registry
        .gauge("erec_serving_queries_served",
               "Queries served through the dispatcher.", labels)
        .set(static_cast<double>(queriesServed()));
    registry
        .gauge("erec_serving_batches_served",
               "Coalesced batches served through the dispatcher.",
               labels)
        .set(static_cast<double>(batchesServed()));
    registry
        .gauge("erec_serving_queue_depth",
               "Queries waiting in the dispatcher's request queue.",
               labels)
        .set(queue_ == nullptr
                 ? 0.0
                 : static_cast<double>(queue_->depth()));
    const auto hist = batchSizeHistogram();
    for (std::size_t k = 0; k < hist.size(); ++k) {
        obs::Labels child = labels;
        child.emplace_back("batch_size", std::to_string(k + 1));
        registry
            .gauge("erec_serving_batches",
                   "Served batches by coalesced batch size.", child)
            .set(static_cast<double>(hist[k]));
    }
}

void
QueryDispatcher::serveJob(Job *job)
{
    const obs::TraceContext root = job->query.trace;
    std::int64_t serve_start = 0;
    if (root.sampled()) {
        // The serve function sees the serve-span context, so shard
        // servers hang their gather/MLP spans under serving/serve.
        job->query.trace = root.child(kServeSlot);
        serve_start = recorder_->nowUs();
    }
    try {
        job->result.set_value(serve_(job->query));
    } catch (...) {
        job->result.set_exception(std::current_exception());
    }
    queriesServed_.fetch_add(1, std::memory_order_relaxed);
    if (root.sampled()) {
        const std::int64_t end_us = recorder_->nowUs();
        recorder_->recordSpan(root.child(kServeSlot), kServeSpanName,
                              serve_start, end_us);
        recorder_->recordSpan(root, kQuerySpanName, job->submitUs,
                              end_us);
    }
}

void
QueryDispatcher::pumpLoop()
{
    // Pre-register this pump worker's span ring while startup
    // allocation is still fair game: the steady loop below records
    // into the ring without ever touching the registration slow path.
    if (tracing_)
        recorder_->registerThisThread();
    // One batch buffer per pump worker, reused for the worker's whole
    // lifetime: after the first pop its capacity is maxBatchSize and
    // the steady loop performs zero allocations.
    std::vector<Job> batch;
    batch.reserve(queue_->options().maxBatchSize); // ERC_HOT_PATH_ALLOW("reserve-once at pump-worker startup")
    for (;;) {
        {
            // The serve_ call stays outside the gate: model compute
            // owns its own allocation budget (see DESIGN.md section
            // 10); the dispatcher machinery itself must stay at zero.
            const AllocGate gate(dispatcherPumpRegion());
            queue_->popBatch(&batch);
        }
        if (batch.empty())
            return; // Queue closed and drained.
        // Close the members' queue spans and open one batch trace
        // with a fan-in link per sampled member: the causal record of
        // "these N queries were coalesced and served together".
        std::size_t sampled = 0;
        obs::TraceContext batch_ctx;
        std::int64_t pop_us = 0;
        if (tracing_) {
            for (const Job &job : batch)
                if (job.query.trace.sampled())
                    ++sampled;
            if (sampled > 0) {
                pop_us = recorder_->nowUs();
                batch_ctx = recorder_->startBatchTrace();
                for (const Job &job : batch) {
                    if (!job.query.trace.sampled())
                        continue;
                    recorder_->recordSpan(
                        job.query.trace.child(kQueueSlot),
                        kQueueSpanName, job.submitUs, pop_us);
                    recorder_->recordLink(batch_ctx, kBatchLinkName,
                                          job.query.trace.traceId,
                                          pop_us);
                }
            }
        }
        for (auto &job : batch)
            serveJob(&job);
        if (sampled > 0)
            recorder_->recordSpan(batch_ctx, kBatchSpanName, pop_us,
                                  recorder_->nowUs(), batch.size());
        const AllocGate gate(dispatcherPumpRegion());
        batchesServed_.fetch_add(1, std::memory_order_relaxed);
        const std::size_t bin =
            std::min(batch.size(), batchHist_.size()) - 1;
        batchHist_[bin].fetch_add(1, std::memory_order_relaxed);
    }
}

} // namespace erec::serving
