#include "core/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "sanitizer/simsan.h"

namespace aegaeon {
namespace {

// Minimum re-poll interval for a stalled decode round (all requests waiting
// on transfers). Progress is guaranteed because every wait is bounded by a
// transfer completion event.
constexpr Duration kRoundRetryDelay = 0.005;

}  // namespace

AegaeonCluster::AegaeonCluster(AegaeonConfig config, const ModelRegistry& registry,
                               const GpuSpec& gpu_spec)
    : config_(std::move(config)), registry_(registry), latency_(gpu_spec) {
  const int instances = config_.prefill_instances + config_.decode_instances;
  const int nodes = std::max(1, std::min(config_.nodes, instances));
  config_.nodes = nodes;
  aging_ = config_.aging;

  // Balanced contiguous instance-to-node assignment.
  std::vector<int> node_of_instance(instances);
  std::vector<int> gpus_per_node(nodes, 0);
  for (int i = 0; i < instances; ++i) {
    node_of_instance[i] = i * nodes / instances;
    gpus_per_node[node_of_instance[i]] += config_.instance_tp;
  }
  node_states_.resize(nodes);
  GpuId next_gpu_id = 0;
  for (int n = 0; n < nodes; ++n) {
    NodeState& state = node_states_[n];
    state.hw = std::make_unique<Node>(gpus_per_node[n], gpu_spec, /*dram_bytes=*/2048.0 * kGiB,
                                      next_gpu_id);
    next_gpu_id += gpus_per_node[n];
    state.model_cache =
        std::make_unique<ModelCache>(config_.model_cache_bytes, config_.remote_registry_bw);
    if (config_.ssd_cache_bytes > 0.0) {
      state.model_cache->EnableSsdTier(config_.ssd_cache_bytes, config_.ssd_bw);
    }
    state.cpu_kv = std::make_unique<UnifiedKvCache>(
        "cpu-kv-n" + std::to_string(n), static_cast<uint64_t>(config_.cpu_kv_bytes),
        static_cast<uint64_t>(config_.slab_bytes), config_.tokens_per_block);
    state.fabric = std::make_unique<StreamSim>("fabric-n" + std::to_string(n));
  }

  // Register every model's KV shape in every cache up front: identical
  // geometries share a shape class, and registration order makes the ids
  // identical across caches. The CPU caches store the full KV; GPU caches
  // store per-rank shards (kv_heads / tp).
  cpu_shape_of_model_.reserve(registry_.size());
  gpu_shape_of_model_.reserve(registry_.size());
  for (const DeployedModel& model : registry_.models()) {
    ShapeClassId cpu_id = 0;
    for (NodeState& state : node_states_) {
      cpu_id = state.cpu_kv->RegisterShape(model.spec.kv_shape(), model.spec.dtype_bytes);
    }
    cpu_shape_of_model_.push_back(cpu_id);
    // GPU shapes are registered inside MakeGpuKvCache; mirror the order to
    // learn the ids (registration is idempotent for identical geometry).
    gpu_shape_of_model_.push_back(0);
  }

  std::vector<int> next_local_gpu(nodes, 0);
  prefill_units_.resize(config_.prefill_instances);
  for (int i = 0; i < config_.prefill_instances; ++i) {
    PrefillUnit& unit = prefill_units_[i];
    unit.index = i;
    unit.node = node_of_instance[i];
    unit.gpu = &node_states_[unit.node].hw->gpu(next_local_gpu[unit.node]);
    next_local_gpu[unit.node] += config_.instance_tp;
    unit.kv_cache = MakeGpuKvCache(unit.gpu->id());
    unit.scaler = MakeScaler(*unit.gpu, unit.node);
  }
  decode_units_.resize(config_.decode_instances);
  for (int i = 0; i < config_.decode_instances; ++i) {
    DecodeUnit& unit = decode_units_[i];
    unit.index = i;
    unit.node = node_of_instance[config_.prefill_instances + i];
    unit.gpu = &node_states_[unit.node].hw->gpu(next_local_gpu[unit.node]);
    next_local_gpu[unit.node] += config_.instance_tp;
    unit.kv_cache = MakeGpuKvCache(unit.gpu->id());
    unit.scaler = MakeScaler(*unit.gpu, unit.node);
  }
  // Learn the gpu-side shape ids from the first unit's cache.
  {
    UnifiedKvCache* probe = !prefill_units_.empty() ? prefill_units_[0].kv_cache.get()
                                                    : decode_units_[0].kv_cache.get();
    for (const DeployedModel& model : registry_.models()) {
      gpu_shape_of_model_[model.id] =
          probe->RegisterShape(model.spec.kv_shape_shard(model.tp), model.spec.dtype_bytes);
    }
  }

  PrefillScheduler::Estimators estimators;
  estimators.exec_estimate = [this](const Request& r) {
    const DeployedModel& dm = registry_.Get(r.model);
    return latency_.PrefillOne(dm.spec, dm.tp, r.prompt_tokens);
  };
  estimators.switch_estimate = [this](ModelId from, ModelId to) {
    if (from == to) {
      return Duration{0.0};
    }
    const DeployedModel& dm = registry_.Get(to);
    return latency_.SwitchLoad(dm.spec, dm.tp);
  };
  estimators.current_model = [this](int i) { return prefill_units_[i].scaler->current_model(); };
  prefill_sched_ = std::make_unique<PrefillScheduler>(config_.prefill_instances,
                                                      config_.max_group_size, estimators);
}

std::unique_ptr<UnifiedKvCache> AegaeonCluster::MakeGpuKvCache(int gpu_id) {
  auto cache = std::make_unique<UnifiedKvCache>(
      "gpu-kv-" + std::to_string(gpu_id), static_cast<uint64_t>(config_.gpu_kv_bytes),
      static_cast<uint64_t>(config_.slab_bytes), config_.tokens_per_block);
  // Shape-class ids must match the original registration order.
  for (const DeployedModel& model : registry_.models()) {
    cache->RegisterShape(model.spec.kv_shape_shard(model.tp), model.spec.dtype_bytes);
  }
  return cache;
}

std::unique_ptr<AutoScaler> AegaeonCluster::MakeScaler(GpuDevice& gpu, int node) {
  // Each instance pins only its share of the CPU KV pool.
  const double pin_share =
      config_.cpu_kv_bytes / (config_.prefill_instances + config_.decode_instances);
  auto scaler = std::make_unique<AutoScaler>(gpu, latency_, *node_states_[node].model_cache,
                                             config_.engine_costs, config_.opt_level,
                                             config_.weight_buffer_bytes, pin_share);
  if (config_.opt_level >= OptLevel::kComponentReuse) {
    // §5.1: engines and workers are initialized once per instance before
    // serving; every component except weights and KV is reused.
    scaler->BootBeforeServing();
  }
  scaler->set_prefetch_enabled(config_.prefetch);
  scaler->set_resident_capacity(config_.resident_models);
  return scaler;
}

ShapeClassId AegaeonCluster::ShapeFor(const UnifiedKvCache& cache, ModelId model) const {
  for (const NodeState& state : node_states_) {
    if (&cache == state.cpu_kv.get()) {
      return cpu_shape_of_model_[model];
    }
  }
  return gpu_shape_of_model_[model];
}

void AegaeonCluster::ScheduleFailure(bool prefill_partition, int index, TimePoint when,
                                     Duration downtime) {
  // Validate at schedule time: plans are matched by index when they fire,
  // so an out-of-range index used to be accepted here and then silently
  // hit nothing (or stray memory) mid-run. Fail fast instead.
  const int limit = prefill_partition ? config_.prefill_instances : config_.decode_instances;
  if (index < 0 || index >= limit || !(when >= 0.0) || !(downtime > 0.0)) {
    std::fprintf(stderr,
                 "AegaeonCluster::ScheduleFailure: invalid plan — %s instance %d (pool has "
                 "%d), when=%g, downtime=%g\n",
                 prefill_partition ? "prefill" : "decode", index, limit, when, downtime);
    std::abort();
  }
  FailurePlan plan;
  plan.prefill_partition = prefill_partition;
  plan.index = index;
  plan.when = when;
  plan.downtime = downtime;
  failure_plans_.push_back(plan);
}

void AegaeonCluster::ScheduleLinkDegradation(TimePoint when, Duration duration,
                                             double bandwidth_factor) {
  if (!(when >= 0.0) || !(duration > 0.0) || !(bandwidth_factor > 0.0) ||
      bandwidth_factor > 1.0) {
    std::fprintf(stderr,
                 "AegaeonCluster::ScheduleLinkDegradation: invalid plan — when=%g, "
                 "duration=%g, factor=%g (want when >= 0, duration > 0, 0 < factor <= 1)\n",
                 when, duration, bandwidth_factor);
    std::abort();
  }
  LinkDegradationPlan plan;
  plan.when = when;
  plan.duration = duration;
  plan.bandwidth_factor = bandwidth_factor;
  link_plans_.push_back(plan);
}

void AegaeonCluster::SetLinkHealth(double fraction) {
  for (NodeState& state : node_states_) {
    for (int i = 0; i < state.hw->gpu_count(); ++i) {
      state.hw->gpu(i).link().set_health(fraction);
    }
  }
}

double AegaeonCluster::AgingLatencyFactor(TimePoint now) const {
  if (aging_.latency_rate <= 0.0 || now <= aging_.start) {
    return 1.0;
  }
  return 1.0 + aging_.latency_rate * (now - aging_.start);
}

double AegaeonCluster::AgingKvFactor(TimePoint now) const {
  if (aging_.fragmentation_rate <= 0.0 || now <= aging_.start) {
    return 1.0;
  }
  return 1.0 + aging_.fragmentation_rate * (now - aging_.start);
}

void AegaeonCluster::MakeProxy() {
  ServingProxy::Backend backend;
  backend.queue_delay = [this](const Request&) { return BacklogEstimate(); };
  backend.exec_estimate = [this](const Request& r) {
    const DeployedModel& dm = registry_.Get(r.model);
    return latency_.PrefillOne(dm.spec, dm.tp, r.prompt_tokens);
  };
  backend.slo = [this](ModelId m) { return registry_.Get(m).slo; };
  backend.dispatch = [this](Request* r) { OnArrival(r); };
  proxy_ = std::make_unique<ServingProxy>(config_.proxy, sim_, registry_.size(),
                                          std::move(backend));
}

Duration AegaeonCluster::BacklogEstimate() const {
  Duration best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < prefill_units_.size(); ++i) {
    if (prefill_units_[i].failed) {
      continue;
    }
    best = std::min(best, prefill_sched_->LoadEstimate(static_cast<int>(i)));
  }
  if (!std::isfinite(best)) {
    return 1e9;  // whole prefill partition down; recovery re-pumps the proxy
  }
  // Decode back-pressure: requests already prefilled but waiting for decode
  // KV capacity mean new admissions stall right after their first token.
  // Each overflow entry adds roughly one decode-round quota of delay spread
  // across the decoding instances.
  if (!decode_overflow_.empty() && !decode_units_.empty()) {
    best += static_cast<double>(decode_overflow_.size()) * config_.qmax /
            static_cast<double>(decode_units_.size());
  }
  return best;
}

void AegaeonCluster::RequeuePrefill(Request* request) {
  int target = prefill_sched_->OnArrival(request);
  TryStartPrefill(target);
}

RunMetrics AegaeonCluster::Run(const std::vector<ArrivalEvent>& trace) {
  BeginRun();
  InjectArrivals(trace.data(), trace.size(), 0.0);
  AdvanceAll();
  return FinishRun();
}

void AegaeonCluster::BeginRun() {
  requests_.clear();
  completed_count_ = 0;
  if (config_.proxy.enabled) {
    MakeProxy();
  }
  // Pre-stage checkpoints in every node's host model cache (deployment
  // warms caches before serving; overflow falls back to LRU + registry).
  for (NodeState& state : node_states_) {
    for (const DeployedModel& model : registry_.models()) {
      state.model_cache->Warm(model.id, model.spec.weight_bytes());
    }
  }
  for (const FailurePlan& plan : failure_plans_) {
    sim_.At(plan.when, [this, plan] {
      if (plan.prefill_partition) {
        FailPrefillUnit(plan.index, plan.downtime);
      } else {
        FailDecodeUnit(plan.index, plan.downtime);
      }
    });
  }
  for (const LinkDegradationPlan& plan : link_plans_) {
    sim_.At(plan.when, [this, plan] { SetLinkHealth(plan.bandwidth_factor); });
    sim_.At(plan.when + plan.duration, [this] { SetLinkHealth(1.0); });
  }
}

void AegaeonCluster::InjectArrivals(const ArrivalEvent* events, size_t count, Duration delay) {
  std::vector<TimePoint>& times = inject_times_scratch_;
  times.clear();
  times.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    times.push_back(events[i].time + delay);
  }
  InjectArrivals(events, times.data(), count);
}

void AegaeonCluster::InjectArrivals(const ArrivalEvent* events, const TimePoint* deliver_at,
                                    size_t count) {
  std::vector<EventQueue::Pending>& batch = inject_scratch_;
  batch.clear();
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    requests_.push_back(RequestFromArrival(events[i], requests_.size()));
    Request* r = &requests_.back();
    EventQueue::Pending pending;
    pending.when = deliver_at[i];
    if (proxy_ != nullptr) {
      pending.cb = [this, r] { proxy_->OnArrival(r); };
    } else {
      pending.cb = [this, r] { OnArrival(r); };
    }
    batch.push_back(std::move(pending));
  }
  // Range form: the scratch keeps its capacity for the next epoch.
  sim_.ScheduleBatch(batch.data(), batch.size());
}

uint64_t AegaeonCluster::AdvanceUntil(TimePoint horizon) { return sim_.RunUntil(horizon); }

uint64_t AegaeonCluster::AdvanceAll() { return sim_.Run(); }

RunMetrics AegaeonCluster::FinishRun() {
  // Teardown audit: after quiescence every KV block must be free or parked
  // on a move list, and shadow VRAM accounting must match each device.
  for (PrefillUnit& unit : prefill_units_) {
    simsan::NoteTeardownCheck(&unit.kv_cache->slabs());
  }
  for (DecodeUnit& unit : decode_units_) {
    simsan::NoteTeardownCheck(&unit.kv_cache->slabs());
  }
  for (NodeState& state : node_states_) {
    simsan::NoteTeardownCheck(&state.cpu_kv->slabs());
    for (int i = 0; i < state.hw->gpu_count(); ++i) {
      simsan::NoteVramTeardown(&state.hw->gpu(i), state.hw->gpu(i).vram_used());
    }
  }
  Duration horizon = sim_.Now();
  RunMetrics metrics = FoldRequests(requests_, horizon);
  metrics.switch_latency_samples = SwitchLatencies();
  metrics.sim = sim_.perf();
  return metrics;
}

uint64_t AegaeonCluster::settled_requests() const {
  uint64_t settled = completed_count_;
  if (proxy_ != nullptr) {
    const ProxyStats& stats = proxy_->stats();
    settled += stats.rejected + stats.shed + stats.timed_out;
  }
  return settled;
}

std::vector<double> AegaeonCluster::SwitchLatencies() const {
  std::vector<double> all;
  for (const PrefillUnit& unit : prefill_units_) {
    const auto& v = unit.scaler->switch_latencies();
    all.insert(all.end(), v.begin(), v.end());
  }
  for (const DecodeUnit& unit : decode_units_) {
    const auto& v = unit.scaler->switch_latencies();
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

AegaeonCluster::ScalingStats AegaeonCluster::GetScalingStats() const {
  ScalingStats stats;
  double prefill_sum = 0.0;
  double decode_sum = 0.0;
  for (const PrefillUnit& unit : prefill_units_) {
    stats.prefill_switches += unit.scaler->switches();
    stats.prefetch_hits += unit.scaler->prefetch_hits();
    stats.prefetch_issued += unit.scaler->prefetch_issued();
    for (double v : unit.scaler->switch_latencies()) {
      prefill_sum += v;
    }
  }
  for (const DecodeUnit& unit : decode_units_) {
    stats.decode_switches += unit.scaler->switches();
    stats.prefetch_hits += unit.scaler->prefetch_hits();
    stats.prefetch_issued += unit.scaler->prefetch_issued();
    for (double v : unit.scaler->switch_latencies()) {
      decode_sum += v;
    }
  }
  stats.prefill_switch_mean =
      stats.prefill_switches == 0 ? 0.0 : prefill_sum / stats.prefill_switches;
  stats.decode_switch_mean = stats.decode_switches == 0 ? 0.0 : decode_sum / stats.decode_switches;
  return stats;
}

std::vector<double> AegaeonCluster::GpuUtilization(Duration horizon) const {
  std::vector<double> util;
  if (horizon <= 0.0) {
    return util;
  }
  for (const NodeState& state : node_states_) {
    for (int i = 0; i < state.hw->gpu_count(); ++i) {
      util.push_back(state.hw->gpu(i).compute_stream().busy_time() / horizon);
    }
  }
  return util;
}

// --------------------------------------------------------------------------
// Fault injection
// --------------------------------------------------------------------------

void AegaeonCluster::FailPrefillUnit(int index, Duration downtime) {
  PrefillUnit& unit = prefill_units_[index];
  unit.failed = true;
  unit.epoch++;  // invalidates in-flight completion events
  unit.busy = false;
  prefill_sched_->SetAvailable(index, false);

  // The in-flight prefill (if any) and every queued request re-dispatch to
  // healthy instances; no KV existed for them yet.
  std::vector<Request*> orphans = prefill_sched_->DrainQueue(index);
  if (unit.active != nullptr) {
    orphans.push_back(unit.active);
    unit.active = nullptr;
  }
  for (Request* r : orphans) {
    r->phase = RequestPhase::kQueuedPrefill;
    r->prefilled_tokens = 0;  // partial chunk progress died with the GPU
    r->control_overhead += config_.control_cost_per_decision;
    if (proxy_ != nullptr) {
      // Displaced work re-enters after an exponential backoff instead of
      // piling up on the surviving instances all at once.
      proxy_->RetryAfterFailure(r, [this, r] { RequeuePrefill(r); });
    } else {
      RequeuePrefill(r);
    }
  }
  sim_.After(downtime, [this, index] { RecoverPrefillUnit(index); });
}

void AegaeonCluster::RecoverPrefillUnit(int index) {
  PrefillUnit& unit = prefill_units_[index];
  // The replacement engine boots during the downtime: fresh scaler and KV
  // cache, no resident model.
  unit.scaler = MakeScaler(*unit.gpu, unit.node);
  unit.kv_cache = MakeGpuKvCache(unit.gpu->id());
  unit.failed = false;
  unit.busy = false;
  prefill_sched_->SetAvailable(index, true);
  TryStartPrefill(index);
  if (proxy_ != nullptr) {
    proxy_->OnBackendProgress();
  }
}

void AegaeonCluster::FailDecodeUnit(int index, Duration downtime) {
  DecodeUnit& unit = decode_units_[index];
  unit.failed = true;
  unit.epoch++;
  unit.round_active = false;
  unit.committed_kv_bytes = 0.0;

  // Collect every unfinished request assigned here.
  std::vector<Request*> orphans;
  for (DecodeBatch& batch : unit.work_list) {
    for (Request* r : batch.requests) {
      if (!r->finished()) {
        orphans.push_back(r);
      }
    }
  }
  for (Request* r : unit.parked) {
    if (!r->finished() &&
        std::find(orphans.begin(), orphans.end(), r) == orphans.end()) {
      orphans.push_back(r);
    }
  }
  unit.work_list.clear();
  unit.parked.clear();
  // Device memory is gone with the instance; drop the cache wholesale.
  unit.kv_cache = MakeGpuKvCache(unit.gpu->id());

  for (Request* r : orphans) {
    r->billed_kv_tokens = 0;
    r->control_overhead += config_.control_cost_per_decision;
    if (r->kv.location == KvLocation::kCpu) {
      // Host copy survives: just re-dispatch to another decoding instance.
      r->phase = RequestPhase::kQueuedDecode;
      if (proxy_ != nullptr) {
        proxy_->RetryAfterFailure(r, [this, r] { DispatchDecode(r); });
      } else {
        DispatchDecode(r);
      }
    } else {
      // Device-resident KV is lost: recompute it via the prefill phase
      // (tokens already delivered to the user stay delivered).
      r->kv = KvHandle{};
      r->phase = RequestPhase::kQueuedPrefill;
      r->prefilled_tokens = 0;
      if (proxy_ != nullptr) {
        proxy_->RetryAfterFailure(r, [this, r] { RequeuePrefill(r); });
      } else {
        RequeuePrefill(r);
      }
    }
  }
  sim_.After(downtime, [this, index] { RecoverDecodeUnit(index); });
}

void AegaeonCluster::RecoverDecodeUnit(int index) {
  DecodeUnit& unit = decode_units_[index];
  unit.scaler = MakeScaler(*unit.gpu, unit.node);
  unit.failed = false;
  unit.last_pressure = -1e18;
  DrainDecodeOverflow();
  if (proxy_ != nullptr) {
    proxy_->OnBackendProgress();
  }
}

// --------------------------------------------------------------------------
// Prefill path
// --------------------------------------------------------------------------

void AegaeonCluster::OnArrival(Request* request) {
  request->phase = RequestPhase::kQueuedPrefill;
  request->control_overhead += config_.control_cost_per_decision;
  int unit_index = prefill_sched_->OnArrival(request);
  TryStartPrefill(unit_index);
}

void AegaeonCluster::TryStartPrefill(int unit_index) {
  PrefillUnit& unit = prefill_units_[unit_index];
  if (unit.busy || unit.failed) {
    return;
  }
  Request* request = prefill_sched_->NextJob(unit_index);
  if (request == nullptr) {
    return;
  }
  unit.busy = true;
  unit.active = request;
  request->phase = RequestPhase::kPrefilling;

  TimePoint now = sim_.Now();
  const DeployedModel& dm = registry_.Get(request->model);
  TimePoint ready = now;
  if (unit.scaler->current_model() != dm.id) {
    // Preemptive auto-scaling: prefill instances hold no persistent KV (it
    // is offloaded right after each prefill), so no KV volume rides along.
    ScaleResult result = unit.scaler->ScaleTo(dm, now);
    ready = result.ready_at;
    if (timeline_ != nullptr && ready > now) {
      timeline_->Record(unit_index, "switch", dm.spec.name, now, ready - now);
    }
  }
  // Prefetch the next distinct model in this queue while we execute (§5.2).
  ModelId upcoming = prefill_sched_->UpcomingModel(unit_index);
  if (upcoming != kInvalidModel && upcoming != dm.id) {
    unit.scaler->Prefetch(registry_.Get(upcoming), ready);
  }

  // A recomputation after a decode-instance failure re-prefills the whole
  // accumulated context, not just the original prompt. With chunked prefill
  // enabled, long prompts run one chunk at a time, re-queueing between
  // chunks so they cannot monopolize the instance.
  const int64_t total_tokens = request->context_tokens();
  int64_t chunk = total_tokens - request->prefilled_tokens;
  if (config_.prefill_chunk_tokens > 0 && chunk > config_.prefill_chunk_tokens) {
    chunk = config_.prefill_chunk_tokens;
  }
  // Attention in this chunk spans the already-prefilled prefix too.
  double sq_sum = static_cast<double>(chunk) *
                  static_cast<double>(request->prefilled_tokens + chunk);
  // Software aging inflates execution latency; the factor is exactly 1.0
  // (a bitwise no-op) without drift.
  Duration exec = latency_.Prefill(dm.spec, dm.tp, chunk, sq_sum) * AgingLatencyFactor(ready);
  StreamSim::Span span = unit.gpu->compute_stream().Enqueue(ready, exec);
  if (request->prefilled_tokens == 0) {
    request->prefill_start = span.start;
    request->prefill_wait = span.start - request->arrival;
  }
  request->prefill_exec += span.end - span.start;
  if (timeline_ != nullptr) {
    timeline_->Record(unit_index, "prefill", dm.spec.name + "/r" + std::to_string(request->id),
                      span.start, span.end - span.start);
  }
  uint64_t epoch = unit.epoch;
  sim_.At(span.end, [this, unit_index, request, epoch, chunk, total_tokens] {
    PrefillUnit& unit = prefill_units_[unit_index];
    if (unit.epoch != epoch) {
      return;  // the instance crashed while this prefill was in flight
    }
    request->prefilled_tokens += chunk;
    if (request->prefilled_tokens < total_tokens) {
      // More chunks to go: yield the instance to at most one other group.
      unit.active = nullptr;
      unit.busy = false;
      prefill_sched_->PushContinuation(unit_index, request);
      TryStartPrefill(unit_index);
      return;
    }
    FinishPrefill(unit_index, request);
  });
}

void AegaeonCluster::FinishPrefill(int unit_index, Request* request) {
  PrefillUnit& unit = prefill_units_[unit_index];
  TimePoint now = sim_.Now();

  if (request->generated == 0) {
    // The prefill emits the first token (§2.1).
    request->generated = 1;
    request->first_token_time = now;
    request->last_progress = now;
    const SloSpec& slo = registry_.Get(request->model).slo;
    if (now <= slo.DeadlineFor(request->arrival, 0)) {
      request->tokens_met++;
    }
  }
  // (Recomputation after a failure emits no new tokens: the context's
  // tokens were already delivered.)

  // Materialize the KV cache on the prefill GPU, then offload it to the
  // unified CPU cache for the decode phase (Figure 10, P->C). The CPU cache
  // is checked before the GPU blocks are taken, so a prefill that cannot
  // offload does not allocate GPU blocks only to free them again.
  uint64_t epoch = unit.epoch;
  auto retry_after = [this, unit_index, request, epoch](Duration delay) {
    sim_.After(delay, [this, unit_index, request, epoch] {
      if (prefill_units_[unit_index].epoch == epoch) {
        FinishPrefill(unit_index, request);
      }
    });
  };
  UnifiedKvCache& cpu_kv = CpuKvOf(unit.node);
  ShapeClassId gpu_shape = ShapeFor(*unit.kv_cache, request->model);
  ShapeClassId cpu_shape = cpu_shape_of_model_[request->model];
  int64_t tokens = request->context_tokens();
  unit.kv_cache->Reclaim(now);
  if (unit.kv_cache->FreeTokens(gpu_shape) >= tokens) {
    cpu_kv.Reclaim(now);
    if (cpu_kv.FreeTokens(cpu_shape) < tokens) {
      // Unified CPU cache exhausted: back off and retry; blocks free as
      // decoding completes elsewhere. The Alloc fails; it still runs,
      // because a failed Alloc reorders the shape's slabs.
      cpu_kv.AllocTokens(cpu_shape, tokens);
      retry_after(10 * kRoundRetryDelay);
      return;
    }
  }
  std::vector<BlockRef> blocks = unit.kv_cache->AllocTokens(gpu_shape, tokens);
  if (blocks.empty()) {
    // GPU KV congested by in-flight offloads; retry shortly (bounded by the
    // kv-out stream draining).
    retry_after(kRoundRetryDelay);
    return;
  }
  request->kv.gpu_shape = gpu_shape;
  request->kv.cpu_shape = cpu_shape;
  request->kv.tokens = tokens;
  request->kv.owner = request->id;
  request->kv.blocks = std::move(blocks);
  request->kv.location = KvLocation::kGpu;
  request->kv.gpu = unit.gpu->id();
  request->kv.last_transfer = unit.gpu->compute_stream().Record();

  // Shape ids are identical across caches (same registration order), so the
  // handle's shape stays valid after the swap to the CPU cache.
  bool out_ok = xfer_.SwapOut(request->kv, *unit.gpu, *unit.kv_cache, cpu_kv, now);
  assert(out_ok && "the CPU cache was checked above");
  (void)out_ok;
  request->kv.node = unit.node;
  request->control_overhead += config_.control_cost_per_decision;

  unit.active = nullptr;
  unit.busy = false;
  TryStartPrefill(unit_index);
  if (proxy_ != nullptr) {
    proxy_->OnBackendProgress();  // a prefill slot just freed
  }

  if (request->finished()) {
    // Single-token request: done at prefill.
    request->completion = now;
    request->phase = RequestPhase::kDone;
    ++completed_count_;
    xfer_.Release(request->kv, *unit.kv_cache, CpuKvOf(request->kv.node));
    return;
  }
  DispatchDecode(request);
}

// --------------------------------------------------------------------------
// Decode path
// --------------------------------------------------------------------------

double AegaeonCluster::KvBytesPerToken(ModelId model) const {
  const DeployedModel& dm = registry_.Get(model);
  return dm.spec.kv_bytes_per_token() / dm.tp;
}

double AegaeonCluster::ExpectedKvBytes(ModelId model) const {
  return static_cast<double>(config_.expected_context_tokens) * KvBytesPerToken(model);
}

int AegaeonCluster::MaxBatchForModel(ModelId model) const {
  int capacity_limit = static_cast<int>(config_.gpu_kv_bytes / ExpectedKvBytes(model));
  return std::max(1, std::min(config_.max_decode_batch, capacity_limit));
}

void AegaeonCluster::DispatchDecode(Request* request) {
  request->phase = RequestPhase::kQueuedDecode;
  request->control_overhead += config_.control_cost_per_decision;
  if (!TryAssignDecode(request)) {
    // All decoding instances are at their KV capacity budget; the request
    // waits (this back-pressure is what degrades SLO attainment gracefully
    // at overload instead of thrashing the caches).
    decode_overflow_.push_back(request);
  }
}

bool AegaeonCluster::TryAssignDecode(Request* request) {
  const int max_batch = MaxBatchForModel(request->model);
  const double expected = ExpectedKvBytes(request->model);
  // Keep a small headroom: actual context lengths overshoot the estimate.
  // Software-aging fragmentation shrinks the usable pool over time.
  const double budget = 0.9 * config_.gpu_kv_bytes / AgingKvFactor(sim_.Now());
  const auto has_room = [expected, budget](const DecodeUnit& unit) {
    return !unit.failed && unit.committed_kv_bytes + expected <= budget;
  };
  // Most calls come from DrainDecodeOverflow on a saturated cell and fail
  // here, before the pick's scratch vectors are built.
  if (std::none_of(decode_units_.begin(), decode_units_.end(), has_room)) {
    return false;
  }

  std::vector<size_t> sizes(decode_units_.size());
  std::vector<bool> has_model(decode_units_.size(), false);
  for (size_t i = 0; i < decode_units_.size(); ++i) {
    DecodeUnit& unit = decode_units_[i];
    sizes[i] = unit.work_list.size();
    if (!has_room(unit)) {
      sizes[i] = std::numeric_limits<size_t>::max();  // ineligible
      continue;
    }
    // Locality: a unit on another node costs a fabric hop for the KV; bias
    // the least-loaded choice toward the KV's home node.
    if (unit.node != request->kv.node) {
      sizes[i] += 1;
    }
    for (const DecodeBatch& batch : unit.work_list) {
      if (batch.model == request->model &&
          batch.requests.size() < static_cast<size_t>(max_batch)) {
        has_model[i] = true;
        break;
      }
    }
  }
  int pick = PickDecodeInstance(sizes, has_model);
  DecodeUnit& unit = decode_units_[pick];
  // Bill at least the admission estimate; long prompts bill their actual
  // size up front, and later growth is billed as it happens.
  request->billed_kv_tokens =
      std::max<int64_t>(config_.expected_context_tokens, request->context_tokens());
  unit.committed_kv_bytes +=
      static_cast<double>(request->billed_kv_tokens) * KvBytesPerToken(request->model);

  bool joined = false;
  for (DecodeBatch& batch : unit.work_list) {
    if (batch.model == request->model && batch.requests.size() < static_cast<size_t>(max_batch)) {
      batch.requests.push_back(request);
      joined = true;
      break;
    }
  }
  if (!joined) {
    DecodeBatch batch;
    batch.model = request->model;
    batch.requests.push_back(request);
    unit.work_list.push_back(std::move(batch));
  }

  // Eagerly start the KV swap-in so it overlaps with work-list waiting
  // (Figure 10, C->D). Failure parks the request for round-boundary retry.
  if (!TrySwapIn(unit, request)) {
    unit.parked.push_back(request);
  }
  if (!unit.round_active) {
    StartRound(unit);
  }
  return true;
}

void AegaeonCluster::DrainDecodeOverflow() {
  while (!decode_overflow_.empty()) {
    Request* request = decode_overflow_.front();
    if (!TryAssignDecode(request)) {
      return;
    }
    decode_overflow_.pop_front();
  }
}

void AegaeonCluster::BillKvGrowth(DecodeUnit& unit, Request* request) {
  int64_t ctx = request->context_tokens();
  if (ctx > request->billed_kv_tokens) {
    unit.committed_kv_bytes +=
        static_cast<double>(ctx - request->billed_kv_tokens) * KvBytesPerToken(request->model);
    request->billed_kv_tokens = ctx;
  }
}

void AegaeonCluster::OnDecodeComplete(DecodeUnit& unit, Request* request) {
  unit.committed_kv_bytes = std::max(
      0.0, unit.committed_kv_bytes -
               static_cast<double>(request->billed_kv_tokens) * KvBytesPerToken(request->model));
  DrainDecodeOverflow();
  if (proxy_ != nullptr) {
    proxy_->OnBackendProgress();  // decode KV freed; back-pressure may clear
  }
}

bool AegaeonCluster::MigrateKv(KvHandle& handle, int to_node, TimePoint now) {
  if (handle.node == to_node || handle.location != KvLocation::kCpu) {
    return handle.node == to_node;
  }
  NodeState& src = node_states_[handle.node];
  NodeState& dst = node_states_[to_node];
  dst.cpu_kv->Reclaim(now);
  std::vector<BlockRef> blocks = dst.cpu_kv->AllocTokens(handle.cpu_shape, handle.tokens);
  if (blocks.empty() && handle.tokens > 0) {
    return false;
  }
  // Serialized sends on the source node's fabric endpoint; the copy cannot
  // start before the blocks' last transfer (rule ❷ applies across nodes).
  src.fabric->WaitEvent(handle.last_transfer);
  double bytes = static_cast<double>(src.cpu_kv->BlockBytes(handle.cpu_shape)) *
                 static_cast<double>(handle.blocks.size());
  StreamSim::Span span = src.fabric->Enqueue(now, bytes / config_.internode_bw);
  EventSim done = src.fabric->Record();
  simsan::NoteTransfer(&src.cpu_kv->slabs(), handle.blocks, &dst.cpu_kv->slabs(), blocks,
                       src.fabric.get(), now, span.start, span.end, handle.owner);
  src.cpu_kv->DeferFree(std::move(handle.blocks), done);
  handle.blocks = std::move(blocks);
  handle.node = to_node;
  handle.last_transfer = done;
  kv_migrations_++;
  return true;
}

bool AegaeonCluster::TrySwapIn(DecodeUnit& unit, Request* request) {
  if (request->kv.location == KvLocation::kGpu) {
    return true;
  }
  TimePoint now = sim_.Now();
  if (request->kv.node != unit.node && !MigrateKv(request->kv, unit.node, now)) {
    return false;
  }
  bool ok = xfer_.SwapIn(request->kv, *unit.gpu, *unit.kv_cache, CpuKvOf(unit.node), now);
  if (ok) {
    request->control_overhead += config_.control_cost_per_decision;
  }
  return ok;
}

void AegaeonCluster::StartRound(DecodeUnit& unit) {
  if (unit.failed) {
    unit.round_active = false;
    return;
  }
  unit.round_active = true;
  TimePoint now = sim_.Now();
  unit.kv_cache->Reclaim(now);
  CpuKvOf(unit.node).Reclaim(now);

  // Retry parked swap-ins, but only when the cache verifiably has room and
  // capacity pressure has cooled down — blind retries would thrash the
  // caches with swap-in/out cycles and starve resident requests.
  if (now >= unit.last_pressure + 1.0) {
    for (auto it = unit.parked.begin(); it != unit.parked.end();) {
      Request* r = *it;
      if (r->finished()) {
        it = unit.parked.erase(it);
        continue;
      }
      bool has_room = unit.kv_cache->FreeTokens(r->kv.gpu_shape) >=
                      2 * r->kv.tokens + 2 * config_.tokens_per_block;
      if (has_room && TrySwapIn(unit, r)) {
        r->phase = RequestPhase::kQueuedDecode;
        it = unit.parked.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Drop finished requests and empty batches.
  for (DecodeBatch& batch : unit.work_list) {
    auto& reqs = batch.requests;
    reqs.erase(std::remove_if(reqs.begin(), reqs.end(),
                              [](Request* r) { return r->finished(); }),
               reqs.end());
  }
  unit.work_list.erase(std::remove_if(unit.work_list.begin(), unit.work_list.end(),
                                      [](const DecodeBatch& b) { return b.requests.empty(); }),
                       unit.work_list.end());
  if (unit.work_list.empty() && unit.parked.empty()) {
    unit.round_active = false;
    return;
  }
  if (unit.work_list.empty()) {
    // Only parked requests remain: poll again once transfers complete.
    uint64_t epoch = unit.epoch;
    sim_.After(kRoundRetryDelay, [this, &unit, epoch] {
      if (unit.epoch == epoch) {
        StartRound(unit);
      }
    });
    return;
  }

  // Algorithm 2, lines 5-8.
  GroupBatchesByModel(unit.work_list);
  std::vector<BatchQuotaInput> inputs;
  inputs.reserve(unit.work_list.size());
  Duration switch_total = 0.0;
  ModelId last_model = kInvalidModel;
  for (const DecodeBatch& batch : unit.work_list) {
    const DeployedModel& dm = registry_.Get(batch.model);
    BatchQuotaInput input;
    input.step_time = latency_.DecodeStep(dm.spec, dm.tp, batch.TotalContextTokens()) *
                      AgingLatencyFactor(sim_.Now());
    input.tbt = dm.slo.tbt;
    inputs.push_back(input);
    if (batch.model != last_model) {
      switch_total += latency_.SwitchLoad(dm.spec, dm.tp);
      last_model = batch.model;
    }
  }
  QuotaResult quotas = ComputeQuotas(inputs, switch_total, config_.qmax, config_.alpha_floor);
  unit.quotas = std::move(quotas.quotas);
  unit.turn = 0;
  unit.round_did_work = false;
  unit.earliest_ready = kTimeNever;
  RunTurn(unit);
}

void AegaeonCluster::RunTurn(DecodeUnit& unit) {
  if (unit.failed) {
    unit.round_active = false;
    return;
  }
  if (unit.turn >= unit.work_list.size()) {
    // Round over. If nothing ran (every request waiting on a transfer),
    // re-poll no earlier than the first transfer completion.
    if (!unit.round_did_work) {
      TimePoint next = unit.earliest_ready == kTimeNever ? sim_.Now() + kRoundRetryDelay
                                                         : unit.earliest_ready;
      uint64_t epoch = unit.epoch;
      sim_.At(std::max(next, sim_.Now() + kRoundRetryDelay), [this, &unit, epoch] {
        if (unit.epoch == epoch) {
          StartRound(unit);
        }
      });
      return;
    }
    StartRound(unit);
    return;
  }

  DecodeBatch& batch = unit.work_list[unit.turn];
  TimePoint now = sim_.Now();
  const DeployedModel& dm = registry_.Get(batch.model);

  // Select runnable requests: KV resident and synced (rule ❶) and work left.
  std::vector<Request*> active;
  for (Request* r : batch.requests) {
    if (r->finished() || r->phase == RequestPhase::kParked) {
      continue;
    }
    if (r->kv.location != KvLocation::kGpu || r->kv.gpu != unit.gpu->id()) {
      continue;  // parked or still host-side
    }
    if (!r->kv.last_transfer.Query(now)) {
      unit.earliest_ready = std::min(unit.earliest_ready, r->kv.last_transfer.complete_at());
      r->data_overhead += std::min(r->kv.last_transfer.complete_at() - now, config_.qmax);
      continue;  // swap-in still in flight
    }
    active.push_back(r);
  }
  if (active.empty()) {
    unit.turn++;
    RunTurn(unit);
    return;
  }

  // Preemptive auto-scaling for this batch's model.
  TimePoint ready = now;
  if (unit.scaler->current_model() != dm.id) {
    ScaleResult result = unit.scaler->ScaleTo(dm, now);
    ready = result.ready_at;
    if (timeline_ != nullptr && ready > now) {
      timeline_->Record(config_.prefill_instances + unit.index, "switch", dm.spec.name, now,
                        ready - now);
    }
  }
  // Prefetch the next distinct model in the rotation (§5.2): the current
  // turn's quota usually hides the whole prefetch. The scan wraps around so
  // the round's last turn warms the next round's first model.
  const size_t n_batches = unit.work_list.size();
  for (size_t off = 1; off < n_batches; ++off) {
    const DecodeBatch& next = unit.work_list[(unit.turn + off) % n_batches];
    if (next.model != dm.id) {
      unit.scaler->Prefetch(registry_.Get(next.model), ready);
      break;
    }
  }

  // Steps in this turn: quota-bounded, and never useless (>= 1; capped by
  // the largest remaining output among active requests).
  int64_t total_ctx = 0;
  int64_t max_remaining = 0;
  for (Request* r : active) {
    total_ctx += r->context_tokens();
    max_remaining = std::max(max_remaining, r->remaining_tokens());
  }
  Duration step_time = latency_.DecodeStep(dm.spec, dm.tp, total_ctx) * AgingLatencyFactor(now);
  Duration quota = unit.turn < unit.quotas.size() ? unit.quotas[unit.turn] : config_.qmax;
  int64_t steps = std::max<int64_t>(1, static_cast<int64_t>(quota / step_time));
  steps = std::min(steps, max_remaining);

  // Grow KV for the tokens this turn will append; requests that cannot get
  // blocks are preempted: their KV is offloaded and they re-admit later.
  std::vector<Request*> runnable;
  runnable.reserve(active.size());
  for (Request* r : active) {
    int64_t steps_r = std::min<int64_t>(steps, r->remaining_tokens());
    if (xfer_.Extend(r->kv, *unit.kv_cache, steps_r)) {
      runnable.push_back(r);
    } else {
      unit.last_pressure = now;
      if (xfer_.SwapOut(r->kv, *unit.gpu, *unit.kv_cache, CpuKvOf(unit.node), now)) {
        r->kv.node = unit.node;
        r->phase = RequestPhase::kParked;
        unit.parked.push_back(r);
      }
      // If even the swap-out fails (CPU cache full) the request just skips
      // this turn and retries once capacity frees.
    }
  }
  if (runnable.empty()) {
    unit.turn++;
    RunTurn(unit);
    return;
  }

  unit.round_did_work = true;
  StreamSim::Span span = unit.gpu->compute_stream().Enqueue(ready, steps * step_time);
  // Rule ❶: decoding touches every runnable request's resident KV blocks.
  for (Request* r : runnable) {
    simsan::NoteComputeLaunch(&unit.kv_cache->slabs(), r->kv.blocks,
                              &unit.gpu->compute_stream(), span.start, span.end, r->id);
  }
  if (timeline_ != nullptr) {
    timeline_->Record(config_.prefill_instances + unit.index, "decode",
                      dm.spec.name + " x" + std::to_string(runnable.size()), span.start,
                      span.end - span.start);
  }
  uint64_t epoch = unit.epoch;
  sim_.At(span.end,
          [this, &unit, runnable = std::move(runnable), span, step_time, steps, epoch] {
            if (unit.epoch != epoch) {
              return;  // the instance crashed mid-turn
            }
            FinishTurn(unit, runnable, span.start, step_time, steps);
          });
}

void AegaeonCluster::FinishTurn(DecodeUnit& unit, const std::vector<Request*>& active,
                                TimePoint exec_start, Duration step_time, int64_t steps) {
  for (Request* r : active) {
    const SloSpec& slo = registry_.Get(r->model).slo;
    int64_t steps_r = std::min<int64_t>(steps, r->remaining_tokens());
    // Token k of the turn materializes after k+1 steps.
    r->tokens_met += slo.CountMetTokens(r->arrival, r->generated, exec_start, step_time, steps_r);
    // Decode waiting: the gap since this request last made progress.
    if (r->last_progress != kTimeUnset) {
      r->decode_wait += std::max(0.0, exec_start - r->last_progress);
    }
    r->generated += steps_r;
    r->decode_exec += static_cast<double>(steps_r) * step_time;
    r->last_progress = exec_start + static_cast<double>(steps_r) * step_time;
    BillKvGrowth(unit, r);
    if (r->finished()) {
      r->completion = exec_start + static_cast<double>(steps_r) * step_time;
      r->phase = RequestPhase::kDone;
      ++completed_count_;
      xfer_.Release(r->kv, *unit.kv_cache, CpuKvOf(unit.node));
      OnDecodeComplete(unit, r);
    } else {
      r->phase = RequestPhase::kDecoding;
    }
  }
  unit.turn++;
  RunTurn(unit);
}

}  // namespace aegaeon
