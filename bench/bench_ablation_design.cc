// Design-choice ablations beyond the paper's headline figures:
//   (1) Prefill grouping (Algorithm 1): MAX_GPSIZE 8 vs 1 (no grouping).
//   (2) Weight prefetching (§5.2): on vs off.
//   (3) Auto-scaling optimization tier end-to-end: T1 / T2 / T3.
//   (4) QMAX sensitivity (§4.3 claims robustness to alternative settings).
// Each row reports token-level SLO attainment on the same trace.

#include <cstdio>

#include "e2e_common.h"

using namespace aegaeon;
using namespace aegaeon_bench;

int main() {
  // A load where the design choices matter: 48 models at RPS 0.2 on 16 GPUs.
  ModelRegistry registry = ModelRegistry::MidSizeMarket(48);
  auto trace = GeneratePoisson(registry, 0.2, kHorizon, Dataset::ShareGpt(), kSeed);
  AegaeonConfig base;  // 6 prefill + 10 decode, T3, prefetch on

  std::printf("=== Ablations: 48 models x 0.2 rps on 16 H800 GPUs ===\n\n");

  std::printf("--- (1) Prefill grouping (Algorithm 1) ---\n");
  for (int gpsize : {1, 2, 8, 16}) {
    AegaeonConfig config = base;
    config.max_group_size = gpsize;
    std::printf("MAX_GPSIZE = %-3d -> SLO attainment %6.2f%%\n", gpsize,
                RunSystem(config, registry, trace).SloAttainment() * 100.0);
  }

  std::printf("\n--- (2) Weight prefetching ---\n");
  for (bool prefetch : {false, true}) {
    AegaeonConfig config = base;
    config.prefetch = prefetch;
    std::printf("prefetch %-4s    -> SLO attainment %6.2f%%\n", prefetch ? "on" : "off",
                RunSystem(config, registry, trace).SloAttainment() * 100.0);
  }

  std::printf("\n--- (3) Auto-scaling optimization tier (end-to-end) ---\n");
  for (OptLevel level : {OptLevel::kComponentReuse, OptLevel::kExplicitMemory,
                         OptLevel::kFineGrainedSync}) {
    AegaeonConfig config = base;
    config.opt_level = level;
    config.prefetch = level >= OptLevel::kExplicitMemory;
    std::printf("%-22s -> SLO attainment %6.2f%%\n", ToString(level).c_str(),
                RunSystem(config, registry, trace).SloAttainment() * 100.0);
  }

  std::printf("\n--- (4) QMAX sensitivity (paper: robust to alternatives) ---\n");
  for (double qmax : {1.0, 2.0, 4.0, 8.0}) {
    AegaeonConfig config = base;
    config.qmax = qmax;
    std::printf("QMAX = %-4.1fs     -> SLO attainment %6.2f%%\n", qmax,
                RunSystem(config, registry, trace).SloAttainment() * 100.0);
  }

  std::printf("\n--- (5) Attainment floor alpha (Eq. 3) ---\n");
  for (double floor : {0.25, 0.5, 1.0}) {
    AegaeonConfig config = base;
    config.alpha_floor = floor;
    std::printf("alpha floor %.2f -> SLO attainment %6.2f%%\n", floor,
                RunSystem(config, registry, trace).SloAttainment() * 100.0);
  }

  std::printf("\n--- (6) Hybrid multiplexing: co-resident models (§8 extension) ---\n");
  for (int residents : {1, 2, 3}) {
    AegaeonConfig config = base;
    config.resident_models = residents;
    RunMetrics metrics = RunSystem(config, registry, trace);
    double mean_switch = 0.0;
    for (double v : metrics.switch_latency_samples) {
      mean_switch += v;
    }
    mean_switch = metrics.switch_latency_samples.empty()
                      ? 0.0
                      : mean_switch / metrics.switch_latency_samples.size();
    std::printf("resident set %d  -> SLO attainment %6.2f%% (mean switch %4.0f ms)\n",
                residents, metrics.SloAttainment() * 100.0, mean_switch * 1000.0);
  }
  return 0;
}
