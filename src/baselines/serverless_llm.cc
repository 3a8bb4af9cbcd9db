#include "baselines/serverless_llm.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace aegaeon {

ServerlessLlmCluster::ServerlessLlmCluster(ServerlessLlmConfig config,
                                           const ModelRegistry& registry, const GpuSpec& gpu_spec)
    : config_(config), registry_(registry), latency_(gpu_spec) {
  assert(config_.gpus > 0);
  instances_.resize(config_.gpus);
}

Duration ServerlessLlmCluster::SwitchCost(ModelId model) const {
  const DeployedModel& dm = registry_.Get(model);
  return latency_.SwitchLoad(dm.spec, dm.tp) + config_.init_overhead;
}

Duration ServerlessLlmCluster::ServiceEstimate(const Request& request) const {
  const DeployedModel& dm = registry_.Get(request.model);
  return latency_.PrefillOne(dm.spec, dm.tp, request.prompt_tokens) +
         latency_.DecodeStep(dm.spec, dm.tp, request.prompt_tokens + request.output_tokens) *
             static_cast<double>(request.output_tokens);
}

Duration ServerlessLlmCluster::BacklogEstimate() const {
  // Instances run requests to completion before switching, so a newcomer's
  // queue delay is the full remaining service of everything ahead of it on
  // the least-backlogged instance.
  Duration best = std::numeric_limits<double>::infinity();
  for (const Instance& inst : instances_) {
    Duration load = inst.server != nullptr ? inst.server->EstimatedWork() : Duration{0.0};
    for (const Request* r : inst.waiting) {
      load += ServiceEstimate(*r);
    }
    best = std::min(best, load);
  }
  return instances_.empty() ? 1e9 : best;
}

RunMetrics ServerlessLlmCluster::Run(const std::vector<ArrivalEvent>& trace) {
  requests_.clear();
  requests_.reserve(trace.size());
  if (config_.proxy.enabled) {
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
  for (const ArrivalEvent& event : trace) {
    requests_.push_back(RequestFromArrival(event, requests_.size()));
    Request* r = &requests_.back();
    if (proxy_ != nullptr) {
      sim_.At(event.time, [this, r] { proxy_->OnArrival(r); });
    } else {
      sim_.At(event.time, [this, r] { OnArrival(r); });
    }
  }
  sim_.Run();
  FillDecodeWaits(requests_);
  RunMetrics metrics = FoldRequests(requests_, sim_.Now());
  metrics.sim = sim_.perf();
  for (const Instance& inst : instances_) {
    metrics.switch_latency_samples.insert(metrics.switch_latency_samples.end(),
                                          inst.switch_latencies.begin(),
                                          inst.switch_latencies.end());
  }
  return metrics;
}

void ServerlessLlmCluster::OnArrival(Request* request) {
  // Dispatch: (1) an instance already serving this model, (2) an idle
  // instance, (3) the instance with the least queued work.
  int best = -1;
  for (size_t i = 0; i < instances_.size(); ++i) {
    const Instance& inst = instances_[i];
    if (inst.current == request->model) {
      if (best < 0 || inst.waiting.size() < instances_[best].waiting.size()) {
        best = static_cast<int>(i);
      }
    }
  }
  if (best < 0) {
    for (size_t i = 0; i < instances_.size(); ++i) {
      const Instance& inst = instances_[i];
      bool idle = !inst.busy && inst.waiting.empty() &&
                  (inst.server == nullptr || !inst.server->HasWork());
      if (idle) {
        best = static_cast<int>(i);
        break;
      }
    }
  }
  if (best < 0) {
    size_t min_waiting = std::numeric_limits<size_t>::max();
    for (size_t i = 0; i < instances_.size(); ++i) {
      size_t load = instances_[i].waiting.size() +
                    (instances_[i].server ? instances_[i].server->waiting() +
                                                instances_[i].server->batch_size()
                                          : 0);
      if (load < min_waiting) {
        min_waiting = load;
        best = static_cast<int>(i);
      }
    }
  }
  instances_[best].waiting.push_back(request);
  Kick(best);
}

void ServerlessLlmCluster::AdmitEligible(Instance& inst) {
  if (inst.server == nullptr) {
    return;
  }
  TimePoint oldest_other = kTimeNever;
  for (const Request* r : inst.waiting) {
    if (r->model != inst.current) {
      oldest_other = std::min(oldest_other, r->arrival);
    }
  }
  for (auto it = inst.waiting.begin(); it != inst.waiting.end();) {
    if ((*it)->model == inst.current && (*it)->arrival < oldest_other) {
      inst.server->Enqueue(*it);
      it = inst.waiting.erase(it);
    } else {
      ++it;
    }
  }
}

ModelId ServerlessLlmCluster::PickNextModel(const Instance& inst) const {
  assert(!inst.waiting.empty());
  if (!config_.sjf) {
    return inst.waiting.front()->model;
  }
  // Oracle SJF: the waiting request with the smallest estimated service
  // time (prefill + all decode steps at its eventual context length).
  const Request* best = nullptr;
  Duration best_cost = std::numeric_limits<double>::infinity();
  for (const Request* r : inst.waiting) {
    const DeployedModel& dm = registry_.Get(r->model);
    Duration cost = latency_.PrefillOne(dm.spec, dm.tp, r->prompt_tokens) +
                    latency_.DecodeStep(dm.spec, dm.tp, r->prompt_tokens + r->output_tokens) *
                        static_cast<double>(r->output_tokens);
    if (r->model != inst.current) {
      cost += SwitchCost(r->model);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = r;
    }
  }
  return best->model;
}

void ServerlessLlmCluster::Kick(int i) {
  Instance& inst = instances_[i];
  if (inst.busy) {
    return;
  }
  TimePoint now = sim_.Now();
  AdmitEligible(inst);

  if (inst.server != nullptr && inst.server->HasWork()) {
    inst.busy = true;
    Duration used = inst.server->RunSlice(now, config_.chunk);
    sim_.At(now + std::max(used, 1e-6), [this, i] {
      instances_[i].busy = false;
      Kick(i);
      if (proxy_ != nullptr) {
        proxy_->OnBackendProgress();  // a slice drained; backlog shrank
      }
    });
    return;
  }
  if (inst.waiting.empty()) {
    return;
  }
  // Request-level auto-scaling: switch models only now that the previous
  // batch fully drained.
  ModelId next = PickNextModel(inst);
  if (next == inst.current && inst.server != nullptr) {
    // No switch needed: the chosen model is already resident. Admit its
    // waiters directly (the batch had drained, so fairness is moot).
    for (auto it = inst.waiting.begin(); it != inst.waiting.end();) {
      if ((*it)->model == next) {
        inst.server->Enqueue(*it);
        it = inst.waiting.erase(it);
      } else {
        ++it;
      }
    }
    Kick(i);
    return;
  }
  inst.busy = true;
  Duration cost = SwitchCost(next);
  inst.switch_latencies.push_back(cost);
  sim_.After(cost, [this, i, next] {
    Instance& inst = instances_[i];
    inst.current = next;
    inst.server = std::make_unique<ModelServer>(&registry_.Get(next), &latency_,
                                                config_.max_batch);
    inst.busy = false;
    Kick(i);
  });
}

}  // namespace aegaeon
