// Overload study: goodput with and without the serving proxy (src/serve).
//
// A small pool (Aegaeon: 2 prefill + 3 decoding instances; ServerlessLLM:
// the same 5 GPUs) serves a bursty MMPP trace over an 8-model market at
// load factors from half the sustainable rate to 2x past it. Without the
// proxy every arrival is admitted and, past saturation, queues grow without
// bound — throughput stays high while goodput (SLO-attained completions per
// second) collapses. With the proxy, deadline-aware admission rejects the
// hopeless fraction and the admitted remainder keeps meeting SLO, so
// goodput holds near capacity.
//
// The load factor is relative to `kSustainableBase`, calibrated so factor
// 1.0 keeps the proxy-less Aegaeon configuration at ~90% SLO attainment.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/report.h"
#include "e2e_common.h"

using namespace aegaeon;
using namespace aegaeon_bench;

namespace {

constexpr int kModels = 8;
constexpr double kHorizonS = 240.0;
constexpr uint64_t kTraceSeed = 4242;
// Base per-model MMPP rate at load factor 1.0 (see header comment).
constexpr double kSustainableBase = 0.35;
constexpr double kBurstMultiplier = 6.0;
constexpr double kMeanCalm = 40.0;
constexpr double kMeanBurst = 15.0;

struct CellResult {
  RunMetrics metrics;
  double fairness = 0.0;
};

std::vector<ArrivalEvent> MakeTrace(const ModelRegistry& registry, double load_factor) {
  return GenerateBursty(registry, kSustainableBase * load_factor, kBurstMultiplier, kMeanCalm,
                        kMeanBurst, kHorizonS, Dataset::ShareGpt(), kTraceSeed);
}

CellResult RunCell(const SystemSpec& spec, double load_factor) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(kModels);
  std::unique_ptr<ServingSystem> system = MakeServingSystem(spec, registry, GpuSpec::H800());
  CellResult cell{system->Run(MakeTrace(registry, load_factor)), 0.0};
  cell.fairness = JainFairness(system->PerModelReport());
  return cell;
}

void PrintCell(const char* system, double factor, bool proxy, const CellResult& cell) {
  const RunMetrics& m = cell.metrics;
  std::printf("%-14s x%.2f proxy=%-3s | goodput %6.3f rps | attain %5.1f%% | "
              "fair %4.2f | done %4llu | rej %4llu | shed %3llu | timeout %3llu\n",
              system, factor, proxy ? "on" : "off", m.Goodput(), m.SloAttainment() * 100.0,
              cell.fairness, static_cast<unsigned long long>(m.completed_requests),
              static_cast<unsigned long long>(m.rejected_requests),
              static_cast<unsigned long long>(m.shed_requests),
              static_cast<unsigned long long>(m.timed_out_requests));
}

}  // namespace

int main() {
  const std::vector<double> factors = {0.5, 1.0, 1.5, 2.0};

  // 2 systems x 2 proxy settings x |factors| independent runs, fanned
  // across the sweep pool (each task rebuilds registry + trace itself).
  AegaeonConfig aegaeon;
  aegaeon.prefill_instances = 2;
  aegaeon.decode_instances = 3;
  ServerlessLlmConfig serverless;
  serverless.gpus = 5;
  std::vector<std::function<CellResult()>> tasks;
  for (double factor : factors) {
    for (int proxy = 0; proxy < 2; ++proxy) {
      aegaeon.proxy.enabled = serverless.proxy.enabled = proxy != 0;
      tasks.push_back([aegaeon, factor] { return RunCell(aegaeon, factor); });
      tasks.push_back([serverless, factor] { return RunCell(serverless, factor); });
    }
  }
  std::vector<CellResult> cells = SweepMap(std::move(tasks));

  PrintHeader("Overload goodput: bursty MMPP trace, 8-model market, 5 GPUs");
  std::printf("trace: MMPP base %.2f rps/model, burst x%.0f, calm %.0fs / burst %.0fs, "
              "%.0f s horizon\n",
              kSustainableBase, kBurstMultiplier, kMeanCalm, kMeanBurst, kHorizonS);
  size_t index = 0;
  for (double factor : factors) {
    for (int proxy = 0; proxy < 2; ++proxy) {
      PrintCell("Aegaeon", factor, proxy != 0, cells[index++]);
      PrintCell("ServerlessLLM", factor, proxy != 0, cells[index++]);
    }
    std::printf("\n");
  }

  // Headline check: at 2x the proxy must strictly improve goodput for both
  // systems (the driver greps this line).
  const CellResult& aeg_off = cells[cells.size() - 4];
  const CellResult& sls_off = cells[cells.size() - 3];
  const CellResult& aeg_on = cells[cells.size() - 2];
  const CellResult& sls_on = cells[cells.size() - 1];
  bool aeg_wins = aeg_on.metrics.Goodput() > aeg_off.metrics.Goodput();
  bool sls_wins = sls_on.metrics.Goodput() > sls_off.metrics.Goodput();
  std::printf("at 2.0x load: proxy goodput gain Aegaeon %+.3f rps (%s), "
              "ServerlessLLM %+.3f rps (%s)\n",
              aeg_on.metrics.Goodput() - aeg_off.metrics.Goodput(), aeg_wins ? "WIN" : "LOSS",
              sls_on.metrics.Goodput() - sls_off.metrics.Goodput(), sls_wins ? "WIN" : "LOSS");
  return aeg_wins && sls_wins ? 0 : 1;
}
