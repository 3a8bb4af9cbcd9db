// The MuxServe baseline (§7.1): static multiplexing.
//
// A placement optimizer packs models onto GPUs subject to GPU memory
// (weights + a per-model KV reservation + an activation reservation); with
// the paper's 6-14B market this yields at most two to three models per GPU,
// and models beyond the pool's memory capacity are *refused* — their
// requests are never served (§7.2 "Limitation of multiplexing"). Resident
// models share their GPU via fine-grained temporal multiplexing with no
// switching cost.

#ifndef AEGAEON_BASELINES_MUXSERVE_H_
#define AEGAEON_BASELINES_MUXSERVE_H_

#include <memory>
#include <vector>

#include "analysis/metrics.h"
#include "baselines/model_server.h"
#include "core/request.h"
#include "core/serving_system.h"
#include "model/latency_model.h"
#include "model/registry.h"
#include "sim/simulator.h"

namespace aegaeon {

struct MuxServeConfig {
  int gpus = 16;
  // KV-cache VRAM reserved per colocated model. At 14 GiB the placement
  // optimizer packs at most two 6-14B models per 80 GB GPU, reproducing the
  // paper's observation (§7.2) that MuxServe serves at most 32 models on 16
  // GPUs.
  double kv_reserve_bytes = 14.0 * kGiB;
  // Activation/workspace VRAM reserved per GPU.
  double activation_reserve_bytes = 6.0 * kGiB;
  // Temporal multiplexing quantum.
  Duration quantum = 0.05;
  int max_batch = 32;
};

class MuxServeCluster final : public ServingSystem {
 public:
  MuxServeCluster(MuxServeConfig config, const ModelRegistry& registry, const GpuSpec& gpu_spec);

  RunMetrics Run(const std::vector<ArrivalEvent>& trace) override;
  std::vector<ModelReport> PerModelReport() const override {
    return BuildPerModelReport(requests_, registry_);
  }

  // Models the placement optimizer accepted.
  int placed_models() const { return placed_models_; }
  // Models refused for lack of GPU memory.
  int refused_models() const { return static_cast<int>(registry_.size()) - placed_models_; }
  // Largest number of models colocated on one GPU.
  int max_models_per_gpu() const;

 private:
  struct Gpu {
    std::vector<std::unique_ptr<ModelServer>> servers;
    size_t rr_index = 0;
    bool busy = false;
  };

  void OnArrival(Request* request);
  void Kick(int g);

  MuxServeConfig config_;
  const ModelRegistry& registry_;
  LatencyModel latency_;
  Simulator sim_;
  std::vector<Gpu> gpus_;
  // model id -> (gpu index, server index); -1 when refused.
  std::vector<int> gpu_of_model_;
  std::vector<int> server_of_model_;
  int placed_models_ = 0;
  std::vector<Request> requests_;
};

}  // namespace aegaeon

#endif  // AEGAEON_BASELINES_MUXSERVE_H_
