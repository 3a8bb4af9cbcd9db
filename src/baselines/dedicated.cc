#include "baselines/dedicated.h"

#include <algorithm>
#include <cassert>

namespace aegaeon {

DedicatedCluster::DedicatedCluster(DedicatedConfig config, const ModelRegistry& registry,
                                   const GpuSpec& gpu_spec)
    : config_(config), registry_(registry), latency_(gpu_spec) {
  servers_.reserve(registry_.size());
  for (const DeployedModel& model : registry_.models()) {
    servers_.push_back(std::make_unique<ModelServer>(&model, &latency_, config_.max_batch));
  }
  busy_.assign(registry_.size(), false);
  busy_time_.assign(registry_.size(), 0.0);
}

RunMetrics DedicatedCluster::Run(const std::vector<ArrivalEvent>& trace) {
  requests_.clear();
  requests_.reserve(trace.size());
  for (const ArrivalEvent& event : trace) {
    requests_.push_back(RequestFromArrival(event, requests_.size()));
    Request* r = &requests_.back();
    sim_.At(event.time, [this, r] {
      servers_[r->model]->Enqueue(r);
      Kick(r->model);
    });
  }
  sim_.Run();
  FillDecodeWaits(requests_);
  RunMetrics metrics = FoldRequests(requests_, sim_.Now());
  metrics.sim = sim_.perf();
  return metrics;
}

void DedicatedCluster::Kick(int g) {
  if (busy_[g] || !servers_[g]->HasWork()) {
    return;
  }
  busy_[g] = true;
  TimePoint now = sim_.Now();
  Duration used = servers_[g]->RunSlice(now, config_.chunk);
  busy_time_[g] += used;
  sim_.At(now + std::max(used, 1e-6), [this, g] {
    busy_[g] = false;
    Kick(g);
  });
}

}  // namespace aegaeon
