// Shared harness for the end-to-end figure reproductions: runs Aegaeon and
// the three baselines on a common trace and reports token-level SLO
// attainment, mirroring the paper's §7.2 setup (16 H800 GPUs: 6 prefill +
// 10 decoding instances for Aegaeon; the same 16 GPUs for baselines).

#ifndef AEGAEON_BENCH_E2E_COMMON_H_
#define AEGAEON_BENCH_E2E_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/metrics.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "sim/parallel_sweep.h"
#include "systems/factory.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon_bench {

using namespace aegaeon;

inline constexpr double kHorizon = 240.0;  // seconds of trace per point
inline constexpr uint64_t kSeed = 2025;

struct E2eResult {
  double aegaeon = 0.0;
  double serverless = 0.0;
  double serverless_plus = 0.0;
  double muxserve = 0.0;
};

// Builds the system `spec` selects on the paper's H800s and serves `trace`.
inline RunMetrics RunSystem(const SystemSpec& spec, const ModelRegistry& registry,
                            const std::vector<ArrivalEvent>& trace) {
  return MakeServingSystem(spec, registry, GpuSpec::H800())->Run(trace);
}

// The default spec of each named system (SystemSpecFromName), in order.
// A misspelt name aborts rather than silently running the variant's
// default alternative.
inline std::vector<SystemSpec> SpecsNamed(const std::vector<std::string>& names) {
  std::vector<SystemSpec> specs(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    if (!SystemSpecFromName(names[i], &specs[i])) {
      std::fprintf(stderr, "unknown system '%s'\n", names[i].c_str());
      std::abort();
    }
  }
  return specs;
}

// --- Parallel sweeps ----------------------------------------------------
//
// Sweeps fan (point x system) runs across ParallelSweep. Per the
// determinism contract every task rebuilds its registry and trace inside
// the task body from explicit seeds, so nothing mutable is shared and the
// results are bit-identical to the serial path.

// Order-preserving parallel map over independent closures.
template <typename T>
inline std::vector<T> SweepMap(std::vector<std::function<T()>> tasks, int threads = 0) {
  ParallelSweep sweep(threads);
  return sweep.Map(std::move(tasks));
}

// One sweep point described by recipe rather than by value.
struct SweepCase {
  std::function<ModelRegistry()> registry;
  std::function<std::vector<ArrivalEvent>(const ModelRegistry&)> trace;
};

// Runs all four systems on every case's trace — 4N independent tasks — and
// returns per-case SLO attainments in input order.
inline std::vector<E2eResult> RunAllSystemsSweep(const std::vector<SweepCase>& cases,
                                                 int threads = 0) {
  const std::vector<SystemSpec> systems = SpecsNamed({"aegaeon", "sllm", "sllm+", "mux"});
  std::vector<std::function<double()>> tasks;
  tasks.reserve(cases.size() * systems.size());
  for (const SweepCase& c : cases) {
    for (const SystemSpec& spec : systems) {
      tasks.push_back([c, spec] {
        ModelRegistry registry = c.registry();
        return RunSystem(spec, registry, c.trace(registry)).SloAttainment();
      });
    }
  }
  std::vector<double> a = SweepMap(std::move(tasks), threads);
  std::vector<E2eResult> results(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    results[i] = {a[4 * i], a[4 * i + 1], a[4 * i + 2], a[4 * i + 3]};
  }
  return results;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void PrintE2eRow(double x, const E2eResult& r, const char* x_name) {
  std::printf("%-18s %6.2f | Aegaeon %6.1f%% | ServerlessLLM %6.1f%% | "
              "ServerlessLLM+ %6.1f%% | MuxServe %6.1f%%\n",
              x_name, x, r.aegaeon * 100.0, r.serverless * 100.0, r.serverless_plus * 100.0,
              r.muxserve * 100.0);
}

// Largest x meeting the 90% overall SLO requirement (the paper's vertical
// goodput lines); -1 when no point qualifies.
inline double MaxLoadMeeting90(const std::vector<double>& xs,
                               const std::vector<double>& attainment) {
  double best = -1.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (attainment[i] >= 0.90) {
      best = xs[i] > best ? xs[i] : best;
    }
  }
  return best;
}

}  // namespace aegaeon_bench

#endif  // AEGAEON_BENCH_E2E_COMMON_H_
