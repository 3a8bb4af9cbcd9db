// The ServerlessLLM baseline (§7.1): request-level auto-scaling.
//
// Each GPU instance serves one model at a time with continuous batching and
// switches models only when its running batch fully drains — scaling "at
// the end of requests" (§2.3). Model loading is fast (ServerlessLLM's
// multi-tier checkpoint loading achieves the optimized PCIe bandwidth), but
// engines are re-initialized per scale-up, and requests for other models
// experience the head-of-line blocking that motivates Aegaeon.
//
// ServerlessLLM+ extends the scheduler with oracle Shortest-Job-First:
// when an instance goes idle it serves the waiting request with the least
// estimated service time (using true output lengths), as in §7.1.

#ifndef AEGAEON_BASELINES_SERVERLESS_LLM_H_
#define AEGAEON_BASELINES_SERVERLESS_LLM_H_

#include <deque>
#include <memory>
#include <vector>

#include "analysis/metrics.h"
#include "baselines/model_server.h"
#include "core/request.h"
#include "core/serving_system.h"
#include "model/latency_model.h"
#include "model/registry.h"
#include "serve/proxy.h"
#include "sim/simulator.h"

namespace aegaeon {

struct ServerlessLlmConfig {
  int gpus = 16;
  // Oracle SJF scheduling (the ServerlessLLM+ variant).
  bool sjf = false;
  // Engine re-initialization overhead on top of the (fast) weight load.
  Duration init_overhead = 2.0;
  // Execution slice handed to the active server per scheduling round.
  Duration chunk = 0.25;
  int max_batch = 32;
  // Optional overload-aware serving proxy in front of the cluster (the same
  // policy implementation Aegaeon uses, for apples-to-apples goodput).
  ProxyPolicy proxy;
};

class ServerlessLlmCluster final : public ServingSystem {
 public:
  ServerlessLlmCluster(ServerlessLlmConfig config, const ModelRegistry& registry,
                       const GpuSpec& gpu_spec);

  RunMetrics Run(const std::vector<ArrivalEvent>& trace) override;
  std::vector<ModelReport> PerModelReport() const override {
    return BuildPerModelReport(requests_, registry_);
  }

  const std::vector<Request>& requests() const { return requests_; }
  const ServingProxy* proxy() const { return proxy_.get(); }

 private:
  struct Instance {
    ModelId current = kInvalidModel;
    std::unique_ptr<ModelServer> server;
    std::deque<Request*> waiting;  // FIFO across models
    bool busy = false;
    std::vector<Duration> switch_latencies;
  };

  void OnArrival(Request* request);
  void Kick(int i);
  // Full-service-time estimate of one waiting request (prefill + decode).
  Duration ServiceEstimate(const Request& request) const;
  // Least backlogged instance's estimated drain time (queue-delay hook).
  Duration BacklogEstimate() const;
  // Moves same-model waiters into the active server, but never past an
  // older waiter of a different model (FCFS fairness prevents one model
  // from starving the queue via continuous batching).
  void AdmitEligible(Instance& inst);
  ModelId PickNextModel(const Instance& inst) const;
  Duration SwitchCost(ModelId model) const;

  ServerlessLlmConfig config_;
  const ModelRegistry& registry_;
  LatencyModel latency_;
  Simulator sim_;
  std::vector<Instance> instances_;
  std::vector<Request> requests_;
  std::unique_ptr<ServingProxy> proxy_;
};

}  // namespace aegaeon

#endif  // AEGAEON_BASELINES_SERVERLESS_LLM_H_
