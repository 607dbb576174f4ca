#include "elasticrec/sim/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "elasticrec/common/alloc_tracker.h"
#include "elasticrec/common/error.h"
#include "elasticrec/rpc/message.h"

namespace erec::sim {

namespace {

// Interned once at static-init time; trace records carry the ids.
const obs::NameId kQueryName = obs::internSpanName("query");
const obs::NameId kMonoQueueName = obs::internSpanName("mono/queue");
const obs::NameId kMonoServiceName =
    obs::internSpanName("mono/service");
const obs::NameId kDenseQueueName = obs::internSpanName("dense/queue");
const obs::NameId kDenseComputeName =
    obs::internSpanName("dense/compute");

/** Child slots under the root query span. Sparse deployment k owns
 *  the (2 + 2k, 3 + 2k) request/response pair, so every traced query
 *  of one plan produces the same structural span ids. */
constexpr unsigned kMonoQueueSlot = 0;
constexpr unsigned kMonoServiceSlot = 1;
constexpr unsigned kDenseQueueSlot = 0;
constexpr unsigned kDenseComputeSlot = 1;

constexpr unsigned
sparseRequestSlot(unsigned ordinal)
{
    return 2 + 2 * ordinal;
}

constexpr unsigned
sparseResponseSlot(unsigned ordinal)
{
    return 3 + 2 * ordinal;
}

// ERC_HOT_PATH_ALLOW("label construction for pod-scoped gauges: used at reap and per-pod sampling, never on the query path")
obs::Labels
podLabels(const std::string &deployment, std::uint64_t pod_id)
{
    return {{"deployment", deployment},
            {"pod", "pod-" + std::to_string(pod_id)}};
}

/** Allocation region charged by the gated query-path event handlers
 *  (kArrival, kRpcArrive, kStageDone, kComponentDone). */
AllocRegion &
simQueryRegion()
{
    static AllocRegion region("sim.query_path");
    return region;
}

} // namespace

ClusterSimulation::ClusterSimulation(core::DeploymentPlan plan,
                                     hw::NodeSpec node,
                                     workload::TrafficPattern traffic,
                                     SimOptions options)
    : plan_(std::move(plan)), node_(std::move(node)),
      traffic_(std::move(traffic)), options_(options),
      rng_(options.seed), arrivals_(traffic_, options.seed ^ 0xA551),
      channel_(hw::NetworkLink(node_)),
      scheduler_(node_),
      obs_(options.observability ? options.observability
                                 : std::make_shared<obs::Registry>()),
      slo_([this](const obs::SloSignal &signal, SimTime now) {
          return readSloSignal(signal, now);
      })
{
    ERC_CHECK(!plan_.shards.empty(), "deployment plan has no shards");
    metrics_.bindObservability(obs_.get());
    obsArrivals_ = &obs_->counter("erec_arrivals_total",
                                  "Queries arrived at the frontend.");
    const double initial_qps = traffic_.qpsAt(0);

    unsigned sparseCount = 0;
    for (const auto &spec : plan_.shards) {
        DeploymentState ds;
        const std::uint32_t initial =
            options_.warmStart
                ? core::DeploymentPlan::replicasForTarget(spec,
                                                          initial_qps)
                : 1;
        ds.deployment =
            std::make_unique<cluster::Deployment>(spec, initial);

        cluster::HpaPolicy policy;
        policy.syncPeriod = options_.hpaSyncPeriod;
        policy.stabilizationWindow = options_.hpaStabilization;
        if (spec.kind == core::ShardKind::SparseEmbedding) {
            policy.metric = cluster::HpaMetric::QpsPerReplica;
            policy.target =
                spec.qpsPerReplica * options_.sparseUtilizationTarget;
        } else {
            policy.metric = cluster::HpaMetric::TailLatency;
            policy.target = static_cast<double>(options_.sla) *
                            options_.denseLatencyTargetFraction;
        }
        ds.hpa = std::make_unique<cluster::Hpa>(policy);
        ds.hpa->bindObservability(obs_.get(), spec.name);

        const obs::Labels labels = {{"deployment", spec.name}};
        ds.obsColdStarts = &obs_->counter(
            "erec_cold_starts_total",
            "Pods started cold (container boot + parameter load).",
            labels);
        ds.obsQueueDepth = &obs_->gauge(
            "erec_queue_depth",
            "Requests pending or in flight across the deployment.",
            labels);
        ds.obsUtilization = &obs_->gauge(
            "erec_utilization",
            "Fraction of ready-replica service capacity busy over the "
            "last sample interval.",
            labels);
        ds.obsReady = &obs_->gauge(
            "erec_ready_replicas", "Pods in the Ready state.", labels);
        ds.obsDesired = &obs_->gauge(
            "erec_desired_replicas",
            "Replica count the controller is converging toward.",
            labels);

        ds.balancer = std::make_unique<cluster::LoadBalancer>(
            options_.lbPolicy,
            options_.seed ^ std::hash<std::string>{}(spec.name));

        if (spec.kind == core::ShardKind::SparseEmbedding) {
            ds.nameRpcRequest =
                obs::internSpanName("rpc/" + spec.name + "/request");
            ds.nameRpcResponse =
                obs::internSpanName("rpc/" + spec.name + "/response");
            ds.nameSparseQueue =
                obs::internSpanName("sparse/" + spec.name + "/queue");
            ds.nameSparseService =
                obs::internSpanName("sparse/" + spec.name + "/service");
            ds.sparseOrdinal = sparseCount++;
            rpc::GatherRequest req;
            req.numIndices = static_cast<std::uint32_t>(
                std::ceil(spec.expectedGathers));
            req.numOffsets = plan_.config.batchSize;
            rpc::GatherResponse resp;
            resp.batch = plan_.config.batchSize;
            resp.dim = plan_.config.embeddingDim;
            ds.requestBytes = req.wireBytes();
            ds.responseBytes = resp.wireBytes();
            // The channel model is pure: one-way leg times per
            // deployment are constants of the plan.
            ds.rpcOut = channel_.oneWay(ds.requestBytes);
            ds.rpcBack = channel_.oneWay(ds.responseBytes);
        }

        if (spec.kind == core::ShardKind::Dense ||
            spec.kind == core::ShardKind::Monolithic) {
            ERC_CHECK(frontendName_.empty(),
                      "plan has more than one frontend shard");
            frontendName_ = spec.name;
        }
        ds.ordinal =
            static_cast<std::uint16_t>(deploymentOrder_.size());
        deploymentOrder_.push_back(spec.name);
        auto [it, inserted] =
            deployments_.emplace(spec.name, std::move(ds));
        ERC_CHECK(inserted, "duplicate deployment " << spec.name);
        depByOrdinal_.push_back(&it->second);
        if (it->first == frontendName_)
            frontend_ = &it->second;
    }
    ERC_CHECK(!frontendName_.empty(), "plan has no frontend shard");
    numSparse_ = sparseCount;

    // Default SLO rules: mirror the control loop's own targets so a
    // run's verdict is "did the autoscaler hold the line".
    {
        obs::AlertRule p95;
        p95.name = "frontend-p95";
        p95.signal = {obs::SignalKind::P95, frontendName_};
        p95.threshold = units::toMillis(options_.sla) *
                        options_.denseLatencyTargetFraction;
        p95.holdFor = 5 * units::kSecond;
        slo_.addRule(std::move(p95));

        obs::AlertRule ratio;
        ratio.name = "sla-violation-ratio";
        ratio.signal = {obs::SignalKind::ViolationRatio, frontendName_};
        ratio.threshold = 0.01;
        slo_.addRule(std::move(ratio));

        obs::AlertRule lost;
        lost.name = "lost-queries";
        lost.signal = {obs::SignalKind::LostQueries, ""};
        slo_.addRule(std::move(lost));
    }
    slo_.bindObservability(obs_.get());
}

double
ClusterSimulation::readSloSignal(const obs::SloSignal &signal, SimTime now)
{
    switch (signal.kind) {
      case obs::SignalKind::P95:
        return units::toMillis(
            metrics_.latencyQuantile(signal.target, now, 0.95));
      case obs::SignalKind::ViolationRatio: {
        const std::uint64_t done = metrics_.completions(signal.target);
        if (done == 0)
            return 0.0;
        return static_cast<double>(
                   metrics_.slaViolations(signal.target)) /
               static_cast<double>(done);
      }
      case obs::SignalKind::Qps:
        return metrics_.qps(signal.target, now);
      case obs::SignalKind::GaugeValue:
        return metrics_.gauge(signal.target);
      case obs::SignalKind::LostQueries:
        return static_cast<double>(lostQueries_);
    }
    return 0.0;
}

ClusterSimulation::DeploymentState &
ClusterSimulation::state(const std::string &name)
{
    auto it = deployments_.find(name);
    ERC_ASSERT(it != deployments_.end(),
               "unknown deployment " << name);
    return it->second;
}

void
ClusterSimulation::setFixedReplicas(const std::string &deployment,
                                    std::uint32_t replicas)
{
    auto &ds = state(deployment);
    ds.deployment->setDesiredReplicas(replicas);
    ds.fixed = true;
}

void
ClusterSimulation::injectPodFailure(const std::string &deployment,
                                    SimTime t, std::uint32_t count)
{
    state(deployment); // validate the name early
    plannedFailures_.push_back({deployment, t, count});
}

std::uint32_t
ClusterSimulation::readyReplicas(const DeploymentState &ds) const
{
    std::uint32_t n = 0;
    for (const auto &p : ds.pods)
        if (p->state() == PodState::Ready)
            ++n;
    return n;
}

Bytes
ClusterSimulation::liveMemory() const
{
    Bytes total = 0;
    for (const auto &[name, ds] : deployments_)
        total += Bytes{ds.pods.size()} * ds.deployment->spec().memBytes;
    return total;
}

std::uint32_t
ClusterSimulation::liveNodes() const
{
    // The pod population changes on add/reap only; between changes the
    // bin-pack result is a pure function of it, so reuse the cache.
    if (!packDirty_)
        return packedNodes_;
    std::vector<cluster::PodRequest> pods;
    for (const auto &[name, ds] : deployments_) {
        const auto req = ds.deployment->request();
        for (std::size_t i = 0; i < ds.pods.size(); ++i)
            pods.push_back({name, req});
    }
    packedNodes_ = scheduler_.pack(pods).numNodes();
    packDirty_ = false;
    return packedNodes_;
}

double
ClusterSimulation::jitter()
{
    if (options_.serviceJitterSigma <= 0)
        return 1.0;
    return std::exp(rng_.normal(0.0, options_.serviceJitterSigma));
}

void
ClusterSimulation::addPod(DeploymentState &ds, bool instant)
{
    const auto &spec = ds.deployment->spec();
    auto pod = std::make_unique<Pod>(nextPodId_++, spec.stageLatencies);
    Pod *raw = pod.get();
    ds.pods.push_back(std::move(pod));
    packDirty_ = true;
    if (instant) {
        raw->markReady();
        return;
    }
    ds.obsColdStarts->inc();
    // Cold start: container scheduling plus loading this shard's
    // parameters into memory. The ready event carries the pod id, not
    // the pointer: the pod may be terminated — even reaped — while
    // starting, and the handler looks it up before touching it.
    const SimTime load = units::fromSeconds(
        static_cast<double>(spec.memBytes) /
        options_.modelLoadBandwidth);
    queue_.scheduleAfter(options_.podStartBase + load,
                         EventType::kPodReady, raw->id(), ds.ordinal);
}

void
ClusterSimulation::podReady(std::uint64_t pod_id, std::uint16_t ordinal)
{
    DeploymentState &ds = *depByOrdinal_[ordinal];
    Pod *raw = nullptr;
    for (const auto &p : ds.pods) {
        if (p->id() == pod_id) {
            raw = p.get();
            break;
        }
    }
    // The pod may have been terminated (or reaped) while starting.
    if (raw == nullptr || raw->state() != PodState::Starting)
        return;
    raw->markReady();
    // Drain any requests that queued while no pod was ready.
    while (!ds.pending.empty()) {
        const WorkItem item = ds.pending.pop();
        dispatch(ds, item);
    }
}

void
ClusterSimulation::removePod(DeploymentState &ds)
{
    // Prefer terminating a pod that is still starting, else the ready
    // pod with the least in-flight work.
    Pod *victim = nullptr;
    for (const auto &p : ds.pods) {
        if (p->state() == PodState::Starting) {
            victim = p.get();
            break;
        }
    }
    if (victim == nullptr) {
        for (const auto &p : ds.pods) {
            if (p->state() != PodState::Ready)
                continue;
            if (victim == nullptr ||
                p->inFlight() < victim->inFlight())
                victim = p.get();
        }
    }
    if (victim == nullptr)
        return; // Nothing removable (all already terminating).

    victim->markTerminating();
    for (const auto &item : victim->stealQueued())
        dispatch(ds, item);
    reapDrained(ds);
}

// ERC_HOT_PATH_ALLOW("reap allocates (gauge label removal) only when a drained or crash-settled pod is actually destroyed — a scale-down/crash consequence, not a per-query step")
void
ClusterSimulation::reapDrained(DeploymentState &ds)
{
    const auto removed =
        std::erase_if(ds.pods, [this, &ds](const std::unique_ptr<Pod> &p) {
            if (!p->removable())
                return false;
            lostQueries_ += p->lostItems();
            // Keep the utilization accounting and the export clean:
            // carry the dead pod's busy time, drop its per-pod gauge.
            ds.reapedBusy += p->busyTime();
            obs_->remove("erec_pod_queue_depth",
                         podLabels(ds.deployment->name(), p->id()));
            return true;
        });
    if (removed != 0)
        packDirty_ = true;
}

void
ClusterSimulation::dispatch(DeploymentState &ds, const WorkItem &item)
{
    // Route across ready replicas with the configured policy
    // (Linkerd's default is power-of-two-choices). The candidate list
    // is a member scratch vector: cleared per call, capacity bounded
    // by the largest deployment's pod count.
    lbScratch_.clear();
    for (std::uint32_t i = 0; i < ds.pods.size(); ++i) {
        if (ds.pods[i]->state() == PodState::Ready) {
            // ERC_HOT_PATH_ALLOW("scratch vector reuses capacity across dispatches; bounded by the pod count, it stops growing once the fleet peaks")
            lbScratch_.push_back({i, ds.pods[i]->inFlight()});
        }
    }
    if (lbScratch_.empty()) {
        ds.pending.push(item);
        return;
    }
    const auto chosen = ds.balancer->pick(lbScratch_);
    ds.pods[chosen]->submit(queue_, *this, item);
}

void
ClusterSimulation::startQuery()
{
    DeploymentState &fe = *frontend_;
    const SimTime arrival = queue_.now();
    const bool monolithic =
        fe.deployment->spec().kind == core::ShardKind::Monolithic;

    // Deterministic every-Nth sampling in arrival order with
    // traceId = arrival index + 1, the rule FlightRecorder applies to
    // submissions: no RNG draw, no extra events, so traced and
    // untraced runs play out identically. The root span opens now and
    // closes in place at completion.
    const std::uint64_t index = result_.arrivals - 1;
    std::size_t trace_root = QueryArena::kUntraced;
    obs::TraceContext root;
    if (options_.traceSampleEvery != 0 &&
        index % options_.traceSampleEvery == 0) {
        root = {index + 1, obs::kRootSpanId};
        trace_root = spans_.size();
        recordSpan(root, kQueryName, arrival, obs::kOpenSpanEnd);
    }

    if (monolithic) {
        WorkItem item;
        item.jitter = jitter();
        item.t0 = arrival;
        item.ctx = arena_.allocate(arrival, 1, trace_root);
        item.dep = fe.ordinal;
        item.kind = WorkKind::Mono;
        item.trace = root;
        dispatch(fe, item);
        return;
    }

    // ElasticRec: the dense shard computes its MLP while the gather
    // RPCs fan out to every sparse shard; the query completes when the
    // dense compute and the slowest shard round trip have both
    // finished. The arena slot carries the fan-in state.
    const std::uint32_t slot =
        arena_.allocate(arrival, 1 + numSparse_, trace_root);

    // Dense leg: overlaps the bottom-MLP compute with the gathers.
    {
        WorkItem item;
        item.jitter = jitter();
        item.t0 = arrival;
        item.ctx = slot;
        item.dep = fe.ordinal;
        item.kind = WorkKind::DenseLeg;
        if (root.sampled())
            item.trace = root.child(kDenseComputeSlot);
        dispatch(fe, item);
    }

    // Sparse legs: request network delay, shard service, response
    // network delay. The kRpcArrive event stands in for the request
    // leg's network flight.
    for (DeploymentState *dsp : depByOrdinal_) {
        DeploymentState &ds = *dsp;
        if (ds.deployment->spec().kind !=
            core::ShardKind::SparseEmbedding)
            continue;
        queue_.scheduleAfter(ds.rpcOut, EventType::kRpcArrive, slot,
                             ds.ordinal);
    }
}

void
ClusterSimulation::rpcArrive(std::uint32_t slot, std::uint16_t ordinal)
{
    DeploymentState &ds = *depByOrdinal_[ordinal];
    const SimTime rpc_arrive = queue_.now();
    WorkItem item;
    item.jitter = jitter();
    item.t0 = rpc_arrive;
    item.ctx = slot;
    item.dep = ordinal;
    item.kind = WorkKind::SparseLeg;
    // The RPC leg's context rides on the work item exactly as the
    // functional stack propagates it in the GatherRequest header;
    // shard-side spans hang under the request span.
    if (arena_.traced(slot)) {
        const obs::TraceContext rpc = traceRootOf(slot).child(
            sparseRequestSlot(ds.sparseOrdinal));
        item.trace = rpc;
        tracedRpcArrive(ds, slot, rpc, rpc_arrive);
    }
    dispatch(ds, item);
}

void
ClusterSimulation::onArrival()
{
    ++result_.arrivals;
    obsArrivals_->inc();
    startQuery();
    scheduleNextArrival();
}

void
ClusterSimulation::workStarted(const WorkItem &item, SimTime start)
{
    if (arena_.traced(item.ctx))
        tracedWorkStarted(item, start);
}

void
ClusterSimulation::workDone(const WorkItem &item, SimTime done)
{
    switch (item.kind) {
      case WorkKind::Mono:
        monoDone(item, done);
        break;
      case WorkKind::DenseLeg:
        if (arena_.traced(item.ctx))
            tracedDenseDone(item, done);
        componentDone(item.ctx, done);
        break;
      case WorkKind::SparseLeg:
        sparseLegDone(item, done);
        break;
      case WorkKind::None:
        break;
    }
}

void
ClusterSimulation::workLost(const WorkItem &item)
{
    // A leg died with its pod: the query can never complete, but its
    // slot must still wait for every other leg to account before it
    // recycles (pending kComponentDone events refer to it).
    arena_.markDead(item.ctx);
    if (arena_.accountLeg(item.ctx))
        arena_.release(item.ctx);
}

void
ClusterSimulation::monoDone(const WorkItem &item, SimTime done)
{
    const std::uint32_t slot = item.ctx;
    const SimTime latency = done - arena_.arrival(slot);
    if (frontendSeries_ == nullptr)
        frontendSeries_ = &metrics_.seriesFor(frontendName_);
    metrics_.recordCompletion(*frontendSeries_, done, latency);
    // ERC_HOT_PATH_ALLOW("DDSketch insert: bucket storage extends only on first sight of a value range; steady-state inserts are allocation-free and the AllocGate pins them")
    latencyAll_.insert(units::toMillis(latency));
    ++result_.completed;
    if (latency > options_.sla) {
        metrics_.recordSlaViolation(*frontendSeries_);
        ++result_.slaViolations;
    }
    if (arena_.traced(slot))
        tracedMonoDone(item, done);
    arena_.release(slot);
}

void
ClusterSimulation::sparseLegDone(const WorkItem &item, SimTime done)
{
    DeploymentState &ds = *depByOrdinal_[item.dep];
    if (ds.series == nullptr)
        ds.series = &metrics_.seriesFor(ds.deployment->name());
    metrics_.recordCompletion(*ds.series, done, 0);
    if (arena_.traced(item.ctx))
        tracedSparseDone(item, done);
    reapDrained(ds);
    // Response leg flies back; fan-in happens when it lands.
    queue_.schedule(done + ds.rpcBack, EventType::kComponentDone,
                    item.ctx);
}

void
ClusterSimulation::componentDone(std::uint32_t slot, SimTime done)
{
    arena_.noteDone(slot, done);
    if (!arena_.accountLeg(slot))
        return;
    if (arena_.dead(slot)) {
        // A sibling leg was lost: no completion, just recycle.
        arena_.release(slot);
        return;
    }
    const SimTime last = arena_.lastDone(slot);
    const SimTime latency = last - arena_.arrival(slot);
    if (frontendSeries_ == nullptr)
        frontendSeries_ = &metrics_.seriesFor(frontendName_);
    metrics_.recordCompletion(*frontendSeries_, last, latency);
    // ERC_HOT_PATH_ALLOW("DDSketch insert: bucket storage extends only on first sight of a value range; steady-state inserts are allocation-free and the AllocGate pins them")
    latencyAll_.insert(units::toMillis(latency));
    ++result_.completed;
    if (latency > options_.sla) {
        metrics_.recordSlaViolation(*frontendSeries_);
        ++result_.slaViolations;
    }
    if (arena_.traced(slot))
        tracedQueryDone(slot);
    arena_.release(slot);
}

/** Record one causal span of a sampled query: the context's
 *  structural id fixes its position in the trace's span tree. */
// ERC_HOT_PATH_ALLOW("span storage appends to the sampled queries' event vector; runs only for traced queries, which are excluded from the zero-alloc pin")
void
ClusterSimulation::recordSpan(const obs::TraceContext &ctx,
                              obs::NameId name, SimTime start,
                              SimTime end)
{
    obs::SpanEvent e;
    e.traceId = ctx.traceId;
    e.spanId = ctx.spanId;
    e.parentId = obs::parentSpanId(ctx.spanId);
    e.startUs = start;
    e.endUs = end;
    e.name = name;
    spans_.push_back(e);
}

obs::TraceContext
ClusterSimulation::traceRootOf(std::uint32_t slot) const
{
    return {spans_[arena_.traceRoot(slot)].traceId, obs::kRootSpanId};
}

void
ClusterSimulation::tracedWorkStarted(const WorkItem &item, SimTime start)
{
    const obs::TraceContext root = traceRootOf(item.ctx);
    switch (item.kind) {
      case WorkKind::Mono:
        recordSpan(root.child(kMonoQueueSlot), kMonoQueueName, item.t0,
                   start);
        break;
      case WorkKind::DenseLeg:
        recordSpan(root.child(kDenseQueueSlot), kDenseQueueName,
                   item.t0, start);
        break;
      case WorkKind::SparseLeg:
        recordSpan(item.trace.child(0),
                   depByOrdinal_[item.dep]->nameSparseQueue, item.t0,
                   start);
        break;
      case WorkKind::None:
        break;
    }
}

void
ClusterSimulation::tracedMonoDone(const WorkItem &item, SimTime done)
{
    recordSpan(traceRootOf(item.ctx).child(kMonoServiceSlot),
               kMonoServiceName, item.svcStart, done);
    spans_[arena_.traceRoot(item.ctx)].endUs = done;
}

void
ClusterSimulation::tracedDenseDone(const WorkItem &item, SimTime done)
{
    recordSpan(item.trace, kDenseComputeName, item.svcStart, done);
}

void
ClusterSimulation::tracedRpcArrive(const DeploymentState &ds,
                                   std::uint32_t slot,
                                   obs::TraceContext rpc,
                                   SimTime rpc_arrive)
{
    recordSpan(rpc, ds.nameRpcRequest, arena_.arrival(slot), rpc_arrive);
}

void
ClusterSimulation::tracedSparseDone(const WorkItem &item, SimTime done)
{
    const DeploymentState &ds = *depByOrdinal_[item.dep];
    recordSpan(item.trace.child(1), ds.nameSparseService, item.svcStart,
               done);
    recordSpan(traceRootOf(item.ctx).child(
                   sparseResponseSlot(ds.sparseOrdinal)),
               ds.nameRpcResponse, done, done + ds.rpcBack);
}

void
ClusterSimulation::tracedQueryDone(std::uint32_t slot)
{
    spans_[arena_.traceRoot(slot)].endUs = arena_.lastDone(slot);
}

void
ClusterSimulation::scheduleNextArrival()
{
    const SimTime next = arrivals_.nextAfter(queue_.now());
    if (next > endTime_)
        return;
    queue_.schedule(next, EventType::kArrival);
}

void
ClusterSimulation::onFailure(std::size_t failure_idx)
{
    const PlannedFailure &failure = plannedFailures_[failure_idx];
    auto &ds = state(failure.deployment);
    for (std::uint32_t k = 0; k < failure.count; ++k) {
        // Crash the most-loaded ready pod (worst case).
        Pod *victim = nullptr;
        for (const auto &p : ds.pods) {
            if (p->state() != PodState::Ready)
                continue;
            if (victim == nullptr ||
                p->inFlight() > victim->inFlight())
                victim = p.get();
        }
        if (victim == nullptr)
            break;
        for (const auto &item : victim->crash(*this))
            dispatch(ds, item);
        reapDrained(ds);
    }
}

void
ClusterSimulation::hpaTick()
{
    if (options_.autoscale) {
        for (const auto &name : deploymentOrder_) {
            auto &ds = state(name);
            if (ds.fixed)
                continue;
            const std::uint32_t ready = readyReplicas(ds);
            if (ready == 0)
                continue;
            const auto &spec = ds.deployment->spec();
            double measured = 0.0;
            if (spec.kind == core::ShardKind::SparseEmbedding) {
                measured = metrics_.qps(name, queue_.now()) /
                           static_cast<double>(ready);
            } else {
                measured = static_cast<double>(metrics_.latencyQuantile(
                    frontendName_, queue_.now(), 0.95));
            }
            const std::uint32_t desired =
                ds.hpa->reconcile(queue_.now(), ready, measured);
            ds.deployment->setDesiredReplicas(desired);
        }
    }

    // Reconcile pod counts toward desired (fixed deployments too).
    for (const auto &name : deploymentOrder_) {
        auto &ds = state(name);
        reapDrained(ds);
        std::uint32_t live = 0;
        for (const auto &p : ds.pods)
            if (p->state() == PodState::Ready ||
                p->state() == PodState::Starting)
                ++live;
        const std::uint32_t desired = ds.deployment->desiredReplicas();
        while (live < desired) {
            addPod(ds, false);
            ++live;
        }
        while (live > desired) {
            removePod(ds);
            --live;
        }
    }

    if (queue_.now() + options_.hpaSyncPeriod <= endTime_)
        queue_.scheduleAfter(options_.hpaSyncPeriod,
                             EventType::kHpaTick);
}

void
ClusterSimulation::sampleTick(SimTime end)
{
    const SimTime now = queue_.now();
    result_.targetQps.add(now, traffic_.qpsAt(now));
    result_.achievedQps.add(now, metrics_.qps(frontendName_, now));
    const Bytes mem = liveMemory();
    result_.memoryGiB.add(now, units::toGiB(mem));
    result_.peakMemory = std::max(result_.peakMemory, mem);
    result_.p95LatencyMs.add(
        now, units::toMillis(metrics_.latencyQuantile(frontendName_,
                                                      now, 0.95)));
    std::uint32_t ready = 0;
    for (const auto &[name, ds] : deployments_)
        ready += readyReplicas(ds);
    result_.readyReplicas.add(now, ready);
    const std::uint32_t nodes = liveNodes();
    result_.nodesInUse.add(now, nodes);
    result_.peakNodes = std::max(result_.peakNodes, nodes);

    // Publish per-deployment (and, in compat mode, per-pod) gauges
    // for the export.
    for (auto &[name, ds] : deployments_) {
        std::uint32_t depth =
            static_cast<std::uint32_t>(ds.pending.size());
        SimTime busy = ds.reapedBusy;
        std::uint32_t dep_ready = 0;
        for (const auto &p : ds.pods) {
            depth += p->inFlight();
            busy += p->busyTime();
            if (p->state() == PodState::Ready) {
                ++dep_ready;
                if (options_.sampling == SamplingMode::CompatTick)
                    obs_->gauge(
                            "erec_pod_queue_depth",
                            "Requests queued or in service at one pod.",
                            podLabels(name, p->id()))
                        .set(p->inFlight());
            }
        }
        ds.obsQueueDepth->set(depth);
        ds.obsReady->set(dep_ready);
        ds.obsDesired->set(ds.deployment->desiredReplicas());
        const auto stages = static_cast<double>(
            ds.deployment->spec().stageLatencies.size());
        const double capacity =
            static_cast<double>(options_.sampleInterval) *
            static_cast<double>(dep_ready) * stages;
        const double util =
            capacity > 0
                ? static_cast<double>(busy - ds.lastBusySample) /
                      capacity
                : 0.0;
        ds.obsUtilization->set(util);
        ds.lastBusySample = busy;
    }

    slo_.evaluate(now);

    if (now + options_.sampleInterval <= end)
        queue_.scheduleAfter(options_.sampleInterval,
                             EventType::kSampleTick);
}

void
ClusterSimulation::onEvent(const EventRecord &event)
{
    switch (event.type) {
      case EventType::kArrival: {
        const AllocGate gate(simQueryRegion());
        onArrival();
        break;
      }
      case EventType::kRpcArrive: {
        const AllocGate gate(simQueryRegion());
        rpcArrive(static_cast<std::uint32_t>(event.a),
                  static_cast<std::uint16_t>(event.b));
        break;
      }
      case EventType::kStageDone: {
        const AllocGate gate(simQueryRegion());
        reinterpret_cast<Pod *>(static_cast<std::uintptr_t>(event.a))
            ->stageDone(queue_, *this,
                        static_cast<std::size_t>(event.b));
        break;
      }
      case EventType::kComponentDone: {
        const AllocGate gate(simQueryRegion());
        componentDone(static_cast<std::uint32_t>(event.a),
                      queue_.now());
        break;
      }
      case EventType::kPodReady:
        podReady(event.a, static_cast<std::uint16_t>(event.b));
        break;
      case EventType::kHpaTick:
        hpaTick();
        break;
      case EventType::kSampleTick:
        sampleTick(endTime_);
        break;
      case EventType::kFailure:
        onFailure(static_cast<std::size_t>(event.a));
        break;
      case EventType::kGeneric:
        break;
    }
}

SimResult
ClusterSimulation::run(SimTime duration)
{
    ERC_CHECK(duration > 0, "simulation duration must be positive");
    result_ = SimResult{};
    latencyAll_.clear();
    lostQueries_ = 0;
    endTime_ = duration;
    // Queries carried over from a previous run() finish untraced:
    // their root indices point into the events being cleared, and
    // their trace ids would collide with this run's.
    spans_.clear();
    arena_.untraceAll();
    slo_.reset();

    // Baseline the scale-event counters so result_ reports only this
    // run's events even when the simulation object is reused.
    std::map<std::string, std::uint64_t> scaleBaseline;
    for (const auto &name : deploymentOrder_) {
        const auto &hpa = *state(name).hpa;
        scaleBaseline[name] =
            hpa.scaleUpEvents() + hpa.scaleDownEvents();
    }

    // Instantiate the initial replica set, ready at t = 0.
    for (const auto &name : deploymentOrder_) {
        auto &ds = state(name);
        while (ds.pods.size() < ds.deployment->desiredReplicas())
            addPod(ds, true);
    }

    for (std::size_t i = 0; i < plannedFailures_.size(); ++i)
        queue_.schedule(plannedFailures_[i].time, EventType::kFailure,
                        i);

    scheduleNextArrival();
    queue_.scheduleAfter(options_.hpaSyncPeriod, EventType::kHpaTick);
    sampleTick(duration);
    queue_.runUntil(duration, *this);

    result_.meanLatencyMs = latencyAll_.mean();
    result_.p95LatencyOverallMs = latencyAll_.quantile(0.95);
    for (const auto &name : deploymentOrder_) {
        auto &ds = state(name);
        for (const auto &p : ds.pods)
            lostQueries_ += p->lostItems();
        result_.finalReplicas[name] =
            static_cast<std::uint32_t>(ds.pods.size());
        const std::uint64_t events = ds.hpa->scaleUpEvents() +
                                     ds.hpa->scaleDownEvents() -
                                     scaleBaseline[name];
        result_.scaleEventsByDeployment[name] = events;
        result_.scaleEvents += events;
    }
    obs_->gauge("erec_lost_queries",
                "Queries whose in-flight work died with a crashed pod.")
        .set(static_cast<double>(lostQueries_));
    return result_;
}

} // namespace erec::sim
