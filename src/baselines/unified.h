// Unified (non-disaggregated) token-level scheduling — the design
// alternative §4.1 and Figure 6 argue against. Every instance serves both
// prefill and decoding jobs with token-level auto-scaling, under one of two
// priority heuristics:
//
//   kPrefillFirst: pending prefills always preempt decoding. Harms TBT when
//                  request arrivals burst (Figure 6a).
//   kDecodeFirst:  decoding rounds run to exhaustion before prefills. Harms
//                  TTFT when prompts are long or decode phases are busy
//                  (Figure 6b).
//
// Aegaeon instead splits the pool into prefill and decoding instances
// (Figure 6c); see core/cluster.h. This module exists to reproduce the
// comparison that motivates that choice.

#ifndef AEGAEON_BASELINES_UNIFIED_H_
#define AEGAEON_BASELINES_UNIFIED_H_

#include <deque>
#include <memory>
#include <vector>

#include "analysis/metrics.h"
#include "core/decode_scheduler.h"
#include "core/request.h"
#include "core/serving_system.h"
#include "engine/autoscaler.h"
#include "hw/node.h"
#include "mem/model_cache.h"
#include "model/latency_model.h"
#include "model/registry.h"
#include "sim/simulator.h"

namespace aegaeon {

enum class UnifiedPolicy {
  kPrefillFirst,
  kDecodeFirst,
};

struct UnifiedConfig {
  int instances = 16;
  UnifiedPolicy policy = UnifiedPolicy::kPrefillFirst;
  // Token-level decode slice between scheduling decisions.
  Duration decode_slice = 0.25;
  int max_decode_batch = 32;
  // GPU KV budget per instance (resident context tokens x bytes).
  double gpu_kv_bytes = 30.0 * kGiB;
  // Auto-scaling stack (the unified alternative still gets Aegaeon's full
  // T3 scaling optimizations — the comparison isolates *scheduling*).
  OptLevel opt_level = OptLevel::kFineGrainedSync;
  double weight_buffer_bytes = 40.0 * kGiB;
  double model_cache_bytes = 1536.0 * kGiB;
  double remote_registry_bw = 12.5e9;
};

class UnifiedCluster final : public ServingSystem {
 public:
  UnifiedCluster(UnifiedConfig config, const ModelRegistry& registry, const GpuSpec& gpu_spec);

  RunMetrics Run(const std::vector<ArrivalEvent>& trace) override;
  std::vector<ModelReport> PerModelReport() const override {
    return BuildPerModelReport(requests_, registry_);
  }

  const std::vector<Request>& requests() const { return requests_; }

 private:
  struct Instance {
    int index = 0;
    GpuDevice* gpu = nullptr;
    std::unique_ptr<AutoScaler> scaler;
    // Prefill queue, grouped by model in FCFS order (Algorithm 1 locally).
    std::deque<Request*> prefill_queue;
    // Decode batches (one per model), rotated round-robin.
    std::vector<DecodeBatch> batches;
    size_t rr = 0;
    double kv_resident_bytes = 0.0;
    bool busy = false;
  };

  void OnArrival(Request* request);
  void Kick(int i);
  bool RunPrefill(Instance& inst);  // true if work was started
  bool RunDecode(Instance& inst);
  void JoinDecode(Instance& inst, Request* request);
  double KvBytesPerToken(ModelId model) const;

  UnifiedConfig config_;
  const ModelRegistry& registry_;
  LatencyModel latency_;
  Simulator sim_;
  std::unique_ptr<Node> node_;
  std::unique_ptr<ModelCache> model_cache_;
  std::vector<Instance> instances_;
  std::vector<Request> requests_;
};

}  // namespace aegaeon

#endif  // AEGAEON_BASELINES_UNIFIED_H_
