// Figure 15. Left: CDF of preemptive auto-scaling latency for 7B / 9B / 13B
// model markets — about half the switches are near-instant thanks to
// prefetching, and the rest complete in under a second. Right: CDF of the
// per-request KV cache management overhead (control + data), under one
// second in total.

#include <cstdio>
#include <vector>

#include "analysis/stats.h"
#include "e2e_common.h"

using namespace aegaeon;
using namespace aegaeon_bench;

namespace {

void PrintCdf(const char* label, std::vector<double> samples) {
  auto cdf = BuildCdf(std::move(samples), 10);
  std::printf("%-10s", label);
  for (const CdfPoint& point : cdf) {
    std::printf(" [%4.2fs:%3.0f%%]", point.value, point.fraction * 100.0);
  }
  std::printf("\n");
}

ModelRegistry UniformMarket(const ModelSpec& spec, int count) {
  ModelRegistry registry;
  for (int i = 0; i < count; ++i) {
    ModelSpec copy = spec;
    copy.name += "#" + std::to_string(i);
    registry.Add(std::move(copy), 1, SloSpec::Chatbot());
  }
  return registry;
}

}  // namespace

int main() {
  struct Size {
    const char* label;
    ModelSpec spec;
  };
  const std::vector<Size> sizes = {Size{"7B", ModelSpec::Qwen7B()}, Size{"9B", ModelSpec::Yi9B()},
                                   Size{"13B", ModelSpec::Llama13B()}};
  struct Setup {
    int models;
    double rps;
  };
  const std::vector<Setup> setups = {Setup{16, 0.1}, Setup{32, 0.1}, Setup{64, 0.1},
                                     Setup{16, 0.5}, Setup{32, 0.5}};

  // Left panel (one task per model size) then right panel (one per setup);
  // every task rebuilds registry/trace/cluster from the shared seed.
  std::vector<std::function<RunMetrics()>> tasks;
  for (const Size& size : sizes) {
    ModelSpec spec = size.spec;
    tasks.push_back([spec] {
      ModelRegistry registry = UniformMarket(spec, 32);
      auto trace = GeneratePoisson(registry, 0.1, kHorizon, Dataset::ShareGpt(), kSeed);
      // Uniform-size markets size their VRAM split for prefetch headroom
      // (two co-resident checkpoints) — a per-deployment configuration.
      AegaeonConfig config;
      config.prefill_instances = 6;
      config.decode_instances = 10;
      config.weight_buffer_bytes = 56.0 * kGiB;
      config.gpu_kv_bytes = 20.0 * kGiB;
      return RunSystem(config, registry, trace);
    });
  }
  for (const Setup& setup : setups) {
    tasks.push_back([setup] {
      ModelRegistry registry = ModelRegistry::MidSizeMarket(setup.models);
      auto trace = GeneratePoisson(registry, setup.rps, kHorizon, Dataset::ShareGpt(), kSeed);
      return RunSystem(AegaeonConfig{}, registry, trace);
    });
  }
  std::vector<RunMetrics> all = SweepMap(std::move(tasks));

  std::printf("=== Figure 15 (left): CDF of auto-scaling latency by model size ===\n");
  for (size_t i = 0; i < sizes.size(); ++i) {
    const RunMetrics& metrics = all[i];
    PrintCdf(sizes[i].label, metrics.switch_latency_samples);
    std::printf("           p50 %.3fs  p90 %.3fs  p99 %.3fs  (n=%zu)\n",
                Percentile(metrics.switch_latency_samples, 50),
                Percentile(metrics.switch_latency_samples, 90),
                Percentile(metrics.switch_latency_samples, 99),
                metrics.switch_latency_samples.size());
  }

  std::printf("\n=== Figure 15 (right): CDF of per-request KV cache sync overhead ===\n");
  for (size_t i = 0; i < setups.size(); ++i) {
    const RunMetrics& metrics = all[sizes.size() + i];
    char label[32];
    std::snprintf(label, sizeof(label), "%dx%.1f", setups[i].models, setups[i].rps);
    PrintCdf(label, metrics.kv_sync_samples);
  }
  std::printf("\n(per-request KV management overhead stays well under one second)\n");
  return 0;
}
