// Figure 13: end-to-end SLO attainment under stricter SLOs. Keeps the
// Figure 11(a) setting (ShareGPT, RPS = 0.1) while scaling the target TTFT
// and TBT to 0.5x / 0.3x / 0.2x (down to 2 s TTFT and 20 ms TBT).
// Paper: Aegaeon leads at 0.5x and 0.3x; at 0.2x the slack vanishes and
// static multiplexing (MuxServe) catches up, though Aegaeon still beats
// request-level auto-scaling (ServerlessLLM).

#include <cstdio>
#include <vector>

#include "e2e_common.h"

using namespace aegaeon;
using namespace aegaeon_bench;

namespace {

struct Fig13Row {
  double aegaeon = 0.0;
  double serverless = 0.0;
  double muxserve = 0.0;
};

}  // namespace

int main() {
  const std::vector<int> model_counts = {16, 28, 40, 52, 64};
  const std::vector<double> scales = {0.5, 0.3, 0.2};
  const std::vector<SystemSpec> systems = SpecsNamed({"aegaeon", "sllm", "mux"});
  // One task per (scale, #models, system); each rebuilds its own state.
  std::vector<std::function<double()>> tasks;
  for (double scale : scales) {
    for (int models : model_counts) {
      for (const SystemSpec& spec : systems) {
        tasks.push_back([scale, models, spec] {
          ModelRegistry registry =
              ModelRegistry::MidSizeMarket(models, SloSpec::Chatbot().Scaled(scale));
          auto trace = GeneratePoisson(registry, 0.1, kHorizon, Dataset::ShareGpt(), kSeed);
          return RunSystem(spec, registry, trace).SloAttainment();
        });
      }
    }
  }
  std::vector<double> values = SweepMap(std::move(tasks));

  size_t next = 0;
  for (double scale : scales) {
    std::printf("\n=== Figure 13: %.1fx SLO (TTFT %.1fs, TBT %.0fms), RPS = 0.1 ===\n", scale,
                10.0 * scale, 100.0 * scale);
    for (int models : model_counts) {
      Fig13Row row;
      row.aegaeon = values[next++];
      row.serverless = values[next++];
      row.muxserve = values[next++];
      std::printf("#models %3d | Aegaeon %6.1f%% | ServerlessLLM %6.1f%% | MuxServe %6.1f%%\n",
                  models, row.aegaeon * 100.0, row.serverless * 100.0, row.muxserve * 100.0);
    }
  }
  return 0;
}
