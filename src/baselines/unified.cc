#include "baselines/unified.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace aegaeon {

UnifiedCluster::UnifiedCluster(UnifiedConfig config, const ModelRegistry& registry,
                               const GpuSpec& gpu_spec)
    : config_(config), registry_(registry), latency_(gpu_spec) {
  assert(config_.instances > 0);
  node_ = std::make_unique<Node>(config_.instances, gpu_spec, 2048.0 * kGiB);
  model_cache_ =
      std::make_unique<ModelCache>(config_.model_cache_bytes, config_.remote_registry_bw);
  instances_.resize(config_.instances);
  for (int i = 0; i < config_.instances; ++i) {
    Instance& inst = instances_[i];
    inst.index = i;
    inst.gpu = &node_->gpu(i);
    inst.scaler = std::make_unique<AutoScaler>(*inst.gpu, latency_, *model_cache_,
                                               EngineCostModel{}, config_.opt_level,
                                               config_.weight_buffer_bytes, 30e9);
    if (config_.opt_level >= OptLevel::kComponentReuse) {
      inst.scaler->BootBeforeServing();
    }
  }
}

double UnifiedCluster::KvBytesPerToken(ModelId model) const {
  const DeployedModel& dm = registry_.Get(model);
  return dm.spec.kv_bytes_per_token() / dm.tp;
}

RunMetrics UnifiedCluster::Run(const std::vector<ArrivalEvent>& trace) {
  requests_.clear();
  requests_.reserve(trace.size());
  for (const DeployedModel& model : registry_.models()) {
    model_cache_->Warm(model.id, model.spec.weight_bytes());
  }
  for (const ArrivalEvent& event : trace) {
    requests_.push_back(RequestFromArrival(event, requests_.size()));
    Request* r = &requests_.back();
    sim_.At(event.time, [this, r] { OnArrival(r); });
  }
  sim_.Run();
  FillDecodeWaits(requests_);
  RunMetrics metrics = FoldRequests(requests_, sim_.Now());
  metrics.sim = sim_.perf();
  for (const Instance& inst : instances_) {
    const auto& v = inst.scaler->switch_latencies();
    metrics.switch_latency_samples.insert(metrics.switch_latency_samples.end(), v.begin(),
                                          v.end());
  }
  return metrics;
}

void UnifiedCluster::OnArrival(Request* request) {
  // Least-loaded dispatch, preferring instances already hosting the model.
  int best = -1;
  size_t best_load = std::numeric_limits<size_t>::max();
  bool best_has_model = false;
  for (size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    size_t load = inst.prefill_queue.size();
    for (const DecodeBatch& batch : inst.batches) {
      load += batch.requests.size();
    }
    bool has_model = inst.scaler->current_model() == request->model;
    for (const DecodeBatch& batch : inst.batches) {
      has_model = has_model || batch.model == request->model;
    }
    if (std::make_pair(!has_model, load) < std::make_pair(!best_has_model, best_load) ||
        best < 0) {
      best = static_cast<int>(i);
      best_load = load;
      best_has_model = has_model;
    }
  }
  request->phase = RequestPhase::kQueuedPrefill;
  instances_[best].prefill_queue.push_back(request);
  Kick(best);
}

void UnifiedCluster::JoinDecode(Instance& inst, Request* request) {
  request->phase = RequestPhase::kQueuedDecode;
  for (DecodeBatch& batch : inst.batches) {
    if (batch.model == request->model &&
        batch.requests.size() < static_cast<size_t>(config_.max_decode_batch)) {
      batch.requests.push_back(request);
      return;
    }
  }
  DecodeBatch batch;
  batch.model = request->model;
  batch.requests.push_back(request);
  inst.batches.push_back(std::move(batch));
}

bool UnifiedCluster::RunPrefill(Instance& inst) {
  // Skip prefills that would exceed the KV budget (they wait for space).
  Request* request = nullptr;
  for (Request* r : inst.prefill_queue) {
    double need = static_cast<double>(r->prompt_tokens + 1) * KvBytesPerToken(r->model);
    if (inst.kv_resident_bytes + need <= config_.gpu_kv_bytes) {
      request = r;
      break;
    }
  }
  if (request == nullptr) {
    return false;
  }
  inst.prefill_queue.erase(
      std::find(inst.prefill_queue.begin(), inst.prefill_queue.end(), request));
  request->phase = RequestPhase::kPrefilling;
  inst.busy = true;

  TimePoint now = sim_.Now();
  const DeployedModel& dm = registry_.Get(request->model);
  TimePoint ready = now;
  if (inst.scaler->current_model() != dm.id) {
    ready = inst.scaler->ScaleTo(dm, now).ready_at;
  }
  Duration exec = latency_.PrefillOne(dm.spec, dm.tp, request->prompt_tokens);
  StreamSim::Span span = inst.gpu->compute_stream().Enqueue(ready, exec);
  request->prefill_start = span.start;
  request->prefill_wait = span.start - request->arrival;
  request->prefill_exec = span.end - span.start;
  inst.kv_resident_bytes +=
      static_cast<double>(request->context_tokens() + 1) * KvBytesPerToken(request->model);

  int i = inst.index;
  sim_.At(span.end, [this, i, request] {
    Instance& inst = instances_[i];
    TimePoint now = sim_.Now();
    request->generated = 1;
    request->first_token_time = now;
    request->last_progress = now;
    const SloSpec& slo = registry_.Get(request->model).slo;
    if (now <= slo.DeadlineFor(request->arrival, 0)) {
      request->tokens_met++;
    }
    if (request->finished()) {
      request->completion = now;
      request->phase = RequestPhase::kDone;
      inst.kv_resident_bytes -= static_cast<double>(request->context_tokens()) *
                                KvBytesPerToken(request->model);
    } else {
      JoinDecode(inst, request);
    }
    inst.busy = false;
    Kick(i);
  });
  return true;
}

bool UnifiedCluster::RunDecode(Instance& inst) {
  // Round-robin over model batches; decode one slice of the next batch
  // with work, switching the resident model if needed.
  const size_t n = inst.batches.size();
  for (size_t probe = 0; probe < n; ++probe) {
    size_t index = (inst.rr + probe) % n;
    DecodeBatch& batch = inst.batches[index];
    if (batch.requests.empty()) {
      continue;
    }
    inst.rr = (index + 1) % n;
    inst.busy = true;
    TimePoint now = sim_.Now();
    const DeployedModel& dm = registry_.Get(batch.model);
    TimePoint ready = now;
    if (inst.scaler->current_model() != dm.id) {
      ready = inst.scaler->ScaleTo(dm, now).ready_at;
    }
    Duration step = latency_.DecodeStep(dm.spec, dm.tp, batch.TotalContextTokens());
    int64_t max_remaining = 0;
    for (const Request* r : batch.requests) {
      max_remaining = std::max(max_remaining, r->remaining_tokens());
    }
    int64_t steps =
        std::max<int64_t>(1, static_cast<int64_t>(config_.decode_slice / step));
    steps = std::min(steps, max_remaining);
    StreamSim::Span span = inst.gpu->compute_stream().Enqueue(ready, steps * step);

    int i = inst.index;
    std::vector<Request*> active = batch.requests;
    sim_.At(span.end, [this, i, index, active, span, step, steps] {
      Instance& inst = instances_[i];
      for (Request* r : active) {
        const SloSpec& slo = registry_.Get(r->model).slo;
        int64_t steps_r = std::min<int64_t>(steps, r->remaining_tokens());
        r->tokens_met += slo.CountMetTokens(r->arrival, r->generated, span.start, step, steps_r);
        r->generated += steps_r;
        r->decode_exec += static_cast<double>(steps_r) * step;
        inst.kv_resident_bytes += static_cast<double>(steps_r) * KvBytesPerToken(r->model);
        if (r->finished()) {
          r->completion = span.start + static_cast<double>(steps_r) * step;
          r->phase = RequestPhase::kDone;
          inst.kv_resident_bytes -= static_cast<double>(r->context_tokens()) *
                                    KvBytesPerToken(r->model);
        }
      }
      if (index < inst.batches.size()) {
        auto& reqs = inst.batches[index].requests;
        reqs.erase(std::remove_if(reqs.begin(), reqs.end(),
                                  [](Request* r) { return r->finished(); }),
                   reqs.end());
      }
      inst.batches.erase(std::remove_if(inst.batches.begin(), inst.batches.end(),
                                        [](const DecodeBatch& b) { return b.requests.empty(); }),
                         inst.batches.end());
      inst.busy = false;
      Kick(i);
    });
    return true;
  }
  return false;
}

void UnifiedCluster::Kick(int i) {
  Instance& inst = instances_[i];
  if (inst.busy) {
    return;
  }
  bool started = false;
  if (config_.policy == UnifiedPolicy::kPrefillFirst) {
    started = RunPrefill(inst);
    if (!started) {
      started = RunDecode(inst);
    }
  } else {
    started = RunDecode(inst);
    if (!started) {
      started = RunPrefill(inst);
    }
  }
  if (!started && !inst.prefill_queue.empty()) {
    // Prefills blocked on KV capacity: back off briefly, then retry as
    // decoding frees space. Marked busy so arrivals don't pile up retries.
    inst.busy = true;
    sim_.After(0.05, [this, i] {
      instances_[i].busy = false;
      Kick(i);
    });
  }
}

}  // namespace aegaeon
