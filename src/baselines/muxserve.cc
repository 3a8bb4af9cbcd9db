#include "baselines/muxserve.h"

#include <algorithm>
#include <cassert>

namespace aegaeon {

MuxServeCluster::MuxServeCluster(MuxServeConfig config, const ModelRegistry& registry,
                                 const GpuSpec& gpu_spec)
    : config_(config), registry_(registry), latency_(gpu_spec) {
  assert(config_.gpus > 0);
  gpus_.resize(config_.gpus);
  gpu_of_model_.assign(registry_.size(), -1);
  server_of_model_.assign(registry_.size(), -1);

  // Greedy first-fit placement subject to GPU memory.
  std::vector<double> used(config_.gpus, config_.activation_reserve_bytes);
  for (const DeployedModel& model : registry_.models()) {
    double need = model.spec.weight_bytes() + config_.kv_reserve_bytes;
    for (int g = 0; g < config_.gpus; ++g) {
      if (used[g] + need <= gpu_spec.vram_bytes) {
        used[g] += need;
        gpu_of_model_[model.id] = g;
        server_of_model_[model.id] = static_cast<int>(gpus_[g].servers.size());
        gpus_[g].servers.push_back(
            std::make_unique<ModelServer>(&model, &latency_, config_.max_batch));
        placed_models_++;
        break;
      }
    }
    // No fit anywhere: the placement optimizer refuses the model.
  }
}

int MuxServeCluster::max_models_per_gpu() const {
  size_t max_count = 0;
  for (const Gpu& gpu : gpus_) {
    max_count = std::max(max_count, gpu.servers.size());
  }
  return static_cast<int>(max_count);
}

RunMetrics MuxServeCluster::Run(const std::vector<ArrivalEvent>& trace) {
  requests_.clear();
  requests_.reserve(trace.size());
  for (const ArrivalEvent& event : trace) {
    requests_.push_back(RequestFromArrival(event, requests_.size()));
    Request* r = &requests_.back();
    // Requests to refused models are accepted but never scheduled: all of
    // their tokens miss (this is what caps MuxServe's model count).
    if (gpu_of_model_[event.model] >= 0) {
      sim_.At(event.time, [this, r] { OnArrival(r); });
    }
  }
  sim_.Run();
  FillDecodeWaits(requests_);
  RunMetrics metrics = FoldRequests(requests_, sim_.Now());
  metrics.sim = sim_.perf();
  return metrics;
}

void MuxServeCluster::OnArrival(Request* request) {
  int g = gpu_of_model_[request->model];
  int s = server_of_model_[request->model];
  gpus_[g].servers[s]->Enqueue(request);
  Kick(g);
}

void MuxServeCluster::Kick(int g) {
  Gpu& gpu = gpus_[g];
  if (gpu.busy) {
    return;
  }
  // Temporal multiplexing: rotate through resident models with work, one
  // quantum each, with no switching cost (all weights stay resident).
  const size_t n = gpu.servers.size();
  for (size_t probe = 0; probe < n; ++probe) {
    size_t index = (gpu.rr_index + probe) % n;
    ModelServer& server = *gpu.servers[index];
    if (!server.HasWork()) {
      continue;
    }
    gpu.busy = true;
    gpu.rr_index = (index + 1) % n;
    TimePoint now = sim_.Now();
    Duration used = server.RunSlice(now, config_.quantum);
    sim_.At(now + std::max(used, 1e-6), [this, g] {
      gpus_[g].busy = false;
      Kick(g);
    });
    return;
  }
}

}  // namespace aegaeon
