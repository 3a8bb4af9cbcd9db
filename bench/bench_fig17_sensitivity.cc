// Figure 17: sensitivity analysis.
// Left: lower-end hardware — a 4xA10 node (2 prefill + 2 decoding
// instances, prefetching disabled because 24 GB cannot host two models)
// serving 6-7B models at RPS 0.1, sweeping the model count, with TBT
// scaled 0.5x (Strict) / 1x (Normal) / 2x (Loose).
// Right: larger models — 72B at TP=4 on an 8xH800 node (1 prefill + 1
// decoding instance), 4 models, sweeping the aggregate arrival rate, with
// TTFT scaled for Strict/Loose.

#include <cstdio>
#include <vector>

#include "e2e_common.h"

using namespace aegaeon;
using namespace aegaeon_bench;

namespace {

double RunA10(int models, double tbt_scale) {
  SloSpec slo = SloSpec::Chatbot();
  slo.tbt *= tbt_scale;
  ModelRegistry registry = ModelRegistry::SmallModelMarket(models, slo);
  auto trace = GeneratePoisson(registry, 0.1, kHorizon, Dataset::ShareGpt(), kSeed);
  AegaeonConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  config.prefetch = false;           // A10: no VRAM headroom for two models
  config.weight_buffer_bytes = 15.0 * kGiB;
  config.gpu_kv_bytes = 6.0 * kGiB;  // 24 GB card
  AegaeonCluster cluster(config, registry, GpuSpec::A10());
  return cluster.Run(trace).SloAttainment();
}

double Run72B(double total_rps, double ttft_scale) {
  SloSpec slo = SloSpec::Chatbot();
  slo.ttft *= ttft_scale;
  ModelRegistry registry = ModelRegistry::LargeModelMarket(4, slo);
  auto trace =
      GeneratePoisson(registry, total_rps / 4.0, kHorizon, Dataset::ShareGpt(), kSeed);
  AegaeonConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  config.instance_tp = 4;
  config.weight_buffer_bytes = 76.0 * kGiB;  // two 36 GB shards fit
  return RunSystem(config, registry, trace).SloAttainment();
}

}  // namespace

int main() {
  const std::vector<int> a10_models = {4, 6, 8, 10};
  const std::vector<double> rates = {0.4, 0.9, 1.4, 1.9, 2.4};
  const double tiers[] = {0.5, 1.0, 2.0};  // Strict / Normal / Loose

  // One task per (point, tier); left panel first, right panel appended.
  std::vector<std::function<double()>> tasks;
  for (int models : a10_models) {
    for (double scale : tiers) {
      tasks.push_back([models, scale] { return RunA10(models, scale); });
    }
  }
  for (double rate : rates) {
    for (double scale : tiers) {
      tasks.push_back([rate, scale] { return Run72B(rate, scale); });
    }
  }
  std::vector<double> values = SweepMap(std::move(tasks));
  size_t next = 0;

  std::printf("=== Figure 17 (left): 4xA10, 6-7B models, RPS = 0.1 ===\n");
  std::printf("%-10s %10s %10s %10s\n", "#models", "Strict", "Normal", "Loose");
  for (int models : a10_models) {
    double strict = values[next++];
    double normal = values[next++];
    double loose = values[next++];
    std::printf("%-10d %9.1f%% %9.1f%% %9.1f%%\n", models, strict * 100.0, normal * 100.0,
                loose * 100.0);
  }

  std::printf("\n=== Figure 17 (right): 8xH800, 72B models at TP=4, 4 models ===\n");
  std::printf("%-12s %10s %10s %10s\n", "rate (req/s)", "Strict", "Normal", "Loose");
  for (double rate : rates) {
    double strict = values[next++];
    double normal = values[next++];
    double loose = values[next++];
    std::printf("%-12.1f %9.1f%% %9.1f%% %9.1f%%\n", rate, strict * 100.0, normal * 100.0,
                loose * 100.0);
  }
  return 0;
}
