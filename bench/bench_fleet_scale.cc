// Fleet-scale simulation throughput benchmark (sharded conservative-sync
// executor, core/fleet.h). Tracks four things via BENCH_fleet_scale.json:
//
//   1. Sim throughput (events/sec) across pool sizes {64, 256, 512, 1024}
//      GPUs x shard counts {1, 2, 4, 8}, with wall-clock per simulated
//      hour as the operator-facing number. Every point is the minimum of
//      kRepeats timed runs (fresh fleet each run), so speedup ratios are
//      not hostage to one scheduler hiccup, and wall times are reported at
//      microsecond precision — the old %.3f readings bottomed out at
//      0.008 s, too coarse to ratio.
//   2. Determinism: for every pool size, results must be bit-identical
//      across all shard counts AND across repeats (the conservative-sync
//      contract), and a 1-cell fleet must reproduce a plain
//      AegaeonCluster::Run signature exactly.
//   3. Epoch skipping: the 256-GPU pool's executed epochs are compared
//      with what a one-slot-per-barrier protocol would execute on the same
//      trace (one epoch per occupied lookahead slot plus the drain epoch);
//      the ratio (one-slot / executed) is the machine-independent handle
//      for the >= 2x reduction gate in tools/run_benches.sh.
//   4. A machine-normalized regression handle: the ratio of single-shard
//      fleet throughput to a plain 16-GPU AegaeonCluster run measured in
//      the same process. Comparing ratios keeps the gate meaningful on
//      machines slower or noisier than the baseline box (same approach as
//      bench_sim_perf's current/legacy ratio).
//
// Speedup gates live in tools/run_benches.sh and consult
// hardware_concurrency: on < 4 cores the gang runs (nearly) inline, so
// only the correctness gates apply there.
//
// Usage: bench_fleet_scale [output.json]   (default BENCH_fleet_scale.json)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/fleet.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "workload/dataset.h"
#include "workload/generator.h"

using namespace aegaeon;

namespace {

constexpr double kTraceHorizon = 90.0;  // seconds of simulated arrivals
// GeneratePoisson's rate is PER MODEL; the market below holds one model per
// two GPUs, so this keeps the aggregate load proportional to the pool
// (0.05 rps/GPU) instead of quadratic in it.
constexpr double kRpsPerModel = 0.5;
constexpr uint64_t kSeed = 2025;
constexpr int kGpusPerCell = 4;  // 2 prefill + 2 decode instances
constexpr int kRepeats = 3;      // timed repeats per point; wall = min
constexpr int kEpochGatePool = 256;  // pool for the epoch-reduction handle

AegaeonConfig CellConfig() {
  AegaeonConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  return config;
}

struct ShardPoint {
  int shards = 0;
  double wall_seconds = 0.0;  // min over kRepeats
  double events_per_sec = 0.0;
  double speedup = 0.0;  // vs shards == 1 on the same pool
  uint64_t events = 0;
};

struct PoolResult {
  int gpus = 0;
  int cells = 0;
  uint64_t requests = 0;
  uint64_t epochs_executed = 0;
  uint64_t epochs_skipped = 0;
  bool identical = true;  // across shard counts AND repeats
  std::vector<ShardPoint> points;
};

// Everything a run produces that must be deterministic. Wall clock and the
// per-shard host counters are deliberately excluded.
struct Signature {
  uint64_t completed = 0;
  int64_t tokens_met = 0;
  double horizon = 0.0;
  uint64_t events = 0;
  uint64_t epochs = 0;
  uint64_t epochs_skipped = 0;

  bool operator==(const Signature& other) const {
    return completed == other.completed && tokens_met == other.tokens_met &&
           horizon == other.horizon && events == other.events && epochs == other.epochs &&
           epochs_skipped == other.epochs_skipped;
  }
};

Signature Sign(const RunMetrics& metrics) {
  Signature sig;
  sig.completed = metrics.completed_requests;
  sig.tokens_met = metrics.tokens_met;
  sig.horizon = metrics.horizon;
  sig.events = metrics.sim.events_processed;
  sig.epochs = metrics.sync_epochs;
  sig.epochs_skipped = metrics.sync_epochs_skipped;
  return sig;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  // steady_clock ticks in nanoseconds on the platforms we build for; the
  // double holds microseconds exactly over any realistic run length.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// One timed fleet run; a fresh fleet per call keeps repeats independent.
Signature TimedFleetRun(const FleetConfig& config, const ModelRegistry& registry,
                        const std::vector<ArrivalEvent>& trace, double* wall) {
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  auto start = std::chrono::steady_clock::now();
  RunMetrics metrics = fleet.Run(trace);
  *wall = Seconds(start);
  return Sign(metrics);
}

PoolResult RunPool(int gpus, const std::vector<int>& shard_counts) {
  PoolResult result;
  result.gpus = gpus;
  result.cells = gpus / kGpusPerCell;

  // The market and trace scale with the pool so per-cell load stays
  // constant; both are rebuilt per run for task independence.
  const int models = std::max(8, result.cells * 2);
  ModelRegistry registry = ModelRegistry::MidSizeMarket(models);
  std::vector<ArrivalEvent> trace =
      GeneratePoisson(registry, kRpsPerModel, kTraceHorizon, Dataset::ShareGpt(), kSeed);
  result.requests = trace.size();

  Signature reference;
  for (int shards : shard_counts) {
    FleetConfig config;
    config.cells = result.cells;
    config.shards = shards;
    config.cell = CellConfig();

    Signature sig;
    double wall = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      double rep_wall = 0.0;
      Signature rep_sig = TimedFleetRun(config, registry, trace, &rep_wall);
      if (rep == 0) {
        sig = rep_sig;
        wall = rep_wall;
      } else {
        wall = std::min(wall, rep_wall);
        if (!(rep_sig == sig)) {
          result.identical = false;  // nondeterministic across repeats
        }
      }
    }

    if (shards == shard_counts.front()) {
      reference = sig;
      result.epochs_executed = sig.epochs;
      result.epochs_skipped = sig.epochs_skipped;
    } else if (!(sig == reference)) {
      result.identical = false;
    }

    ShardPoint point;
    point.shards = shards;
    point.wall_seconds = wall;
    point.events = sig.events;
    point.events_per_sec = wall > 0.0 ? static_cast<double>(point.events) / wall : 0.0;
    point.speedup =
        result.points.empty() ? 1.0 : (wall > 0.0 ? result.points[0].wall_seconds / wall : 0.0);
    result.points.push_back(point);

    double sim_hours_per_wall_hour =
        wall > 0.0 ? (sig.horizon / 3600.0) / (wall / 3600.0) : 0.0;
    std::printf("  %4d GPUs  %3d cells  %d shard%s  %7llu events  %9.6fs wall  "
                "%9.0f ev/s  %6.2fx  (%.0f sim-h/h)\n",
                gpus, result.cells, shards, shards == 1 ? " " : "s",
                static_cast<unsigned long long>(point.events), wall, point.events_per_sec,
                point.speedup, sim_hours_per_wall_hour);
  }
  std::printf("         epochs: %llu executed, %llu skipped\n",
              static_cast<unsigned long long>(result.epochs_executed),
              static_cast<unsigned long long>(result.epochs_skipped));
  return result;
}

// Golden equivalence at bench scale: a 1-cell fleet (dispatch channel
// disabled, zero latency) must reproduce a plain AegaeonCluster::Run
// signature exactly. Epoch counters are loop bookkeeping the plain run
// doesn't have, so the comparison stops at the simulated results.
bool SingleCellMatchesPlainCluster() {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  std::vector<ArrivalEvent> trace =
      GeneratePoisson(registry, kRpsPerModel, kTraceHorizon, Dataset::ShareGpt(), kSeed);

  AegaeonCluster plain(CellConfig(), registry, GpuSpec::H800());
  Signature golden = Sign(plain.Run(trace));

  FleetConfig config;
  config.cells = 1;
  config.shards = 1;
  config.dispatch_latency = 0.0;  // cells == 1: channel disabled anyway
  config.cell = CellConfig();
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  Signature sig = Sign(fleet.Run(trace));

  const bool ok = sig.completed == golden.completed && sig.tokens_met == golden.tokens_met &&
                  sig.horizon == golden.horizon && sig.events == golden.events;
  std::printf("1-cell fleet vs plain cluster: %s (%llu events, %llu completed)\n",
              ok ? "bit-identical" : "DIVERGED (BUG)",
              static_cast<unsigned long long>(sig.events),
              static_cast<unsigned long long>(sig.completed));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_fleet_scale.json";
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> pools = {64, 256, 512, 1024};
  const std::vector<int> shard_counts = {1, 2, 4, 8};

  std::printf("=== Fleet-scale sharded simulation (cores=%d, min of %d repeats) ===\n", cores,
              kRepeats);
  std::printf("    pool sweep x shards, cell = %d GPUs, %.2f rps/model (1 model per 2 GPUs), "
              "%.0fs trace\n\n",
              kGpusPerCell, kRpsPerModel, kTraceHorizon);

  // Machine-speed reference: a plain 16-GPU cluster run in-process, best of
  // kRepeats (EventsPerSec uses the run's own wall measurement; the best
  // repeat is the least-interrupted one, matching the fleet points).
  ModelRegistry ref_registry = ModelRegistry::MidSizeMarket(8);
  auto ref_trace =
      GeneratePoisson(ref_registry, kRpsPerModel, kTraceHorizon, Dataset::ShareGpt(), kSeed);
  AegaeonConfig ref_config;  // paper split: 6 prefill + 10 decode
  double ref_eps = 0.0;
  uint64_t ref_events = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    AegaeonCluster reference(ref_config, ref_registry, GpuSpec::H800());
    RunMetrics ref_metrics = reference.Run(ref_trace);
    ref_eps = std::max(ref_eps, ref_metrics.sim.EventsPerSec());
    ref_events = ref_metrics.sim.events_processed;
  }
  std::printf("reference 16-GPU cluster: %llu events -> %.0f ev/s\n",
              static_cast<unsigned long long>(ref_events), ref_eps);

  const bool single_cell_ok = SingleCellMatchesPlainCluster();
  std::printf("\n");

  std::vector<PoolResult> results;
  bool all_identical = true;
  for (int gpus : pools) {
    results.push_back(RunPool(gpus, shard_counts));
    all_identical = all_identical && results.back().identical;
  }

  // Epoch-reduction handle: the reference pool's executed epochs against a
  // one-slot-per-barrier protocol's, which is a pure function of the trace:
  // one epoch per occupied lookahead slot, plus the drain epoch. Both sides
  // are deterministic, so the ratio is machine-independent.
  uint64_t epochs_on = 0;
  for (const PoolResult& pool : results) {
    if (pool.gpus == kEpochGatePool) {
      epochs_on = pool.epochs_executed;
    }
  }
  uint64_t epochs_one_slot = 0;
  {
    const int cells = kEpochGatePool / kGpusPerCell;
    ModelRegistry registry = ModelRegistry::MidSizeMarket(std::max(8, cells * 2));
    std::vector<ArrivalEvent> trace =
        GeneratePoisson(registry, kRpsPerModel, kTraceHorizon, Dataset::ShareGpt(), kSeed);
    const Duration lookahead = FleetConfig().dispatch_latency;
    std::set<double> occupied_slots;
    for (const ArrivalEvent& event : trace) {
      occupied_slots.insert(std::floor(event.time / lookahead));
    }
    epochs_one_slot = occupied_slots.size() + 1;
  }
  const double epoch_reduction =
      epochs_on > 0 ? static_cast<double>(epochs_one_slot) / static_cast<double>(epochs_on) : 0.0;

  // Headline numbers for the regression gate.
  double single_shard_eps = 0.0;   // largest pool, shards == 1
  double best_large_speedup = 0.0; // best 8-shard speedup on pools >= 512
  for (const PoolResult& pool : results) {
    if (pool.gpus == pools.back()) {
      single_shard_eps = pool.points[0].events_per_sec;
    }
    if (pool.gpus >= 512) {
      best_large_speedup = std::max(best_large_speedup, pool.points.back().speedup);
    }
  }
  const double fleet_ratio = ref_eps > 0.0 ? single_shard_eps / ref_eps : 0.0;

  std::printf("\nresults %s across shard counts and repeats\n",
              all_identical ? "bit-identical" : "DIVERGED (BUG)");
  std::printf("epoch reduction at %d GPUs: %llu -> %llu executed (%.2fx fewer)\n", kEpochGatePool,
              static_cast<unsigned long long>(epochs_one_slot),
              static_cast<unsigned long long>(epochs_on), epoch_reduction);
  std::printf("single-shard fleet ratio (vs 16-GPU reference): %.3f\n", fleet_ratio);
  std::printf("best 8-shard speedup at >=512 GPUs: %.2fx on %d cores\n", best_large_speedup,
              cores);

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"repeats\": %d,\n"
               "  \"reference\": {\n"
               "    \"gpus\": 16,\n"
               "    \"events\": %llu,\n"
               "    \"events_per_sec\": %.0f\n"
               "  },\n",
               cores, kRepeats, static_cast<unsigned long long>(ref_events), ref_eps);
  std::fprintf(out, "  \"pools\": [\n");
  for (size_t p = 0; p < results.size(); ++p) {
    const PoolResult& pool = results[p];
    std::fprintf(out,
                 "    {\n"
                 "      \"gpus\": %d,\n"
                 "      \"cells\": %d,\n"
                 "      \"requests\": %llu,\n"
                 "      \"epochs_executed\": %llu,\n"
                 "      \"epochs_skipped\": %llu,\n"
                 "      \"identical\": %s,\n"
                 "      \"shards\": [\n",
                 pool.gpus, pool.cells, static_cast<unsigned long long>(pool.requests),
                 static_cast<unsigned long long>(pool.epochs_executed),
                 static_cast<unsigned long long>(pool.epochs_skipped),
                 pool.identical ? "true" : "false");
    for (size_t s = 0; s < pool.points.size(); ++s) {
      const ShardPoint& point = pool.points[s];
      std::fprintf(out,
                   "        {\"shards\": %d, \"events\": %llu, \"wall_seconds\": %.6f, "
                   "\"events_per_sec\": %.0f, \"speedup\": %.2f}%s\n",
                   point.shards, static_cast<unsigned long long>(point.events),
                   point.wall_seconds, point.events_per_sec, point.speedup,
                   s + 1 < pool.points.size() ? "," : "");
    }
    std::fprintf(out, "      ]\n    }%s\n", p + 1 < results.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"identical_results\": %s,\n"
               "  \"single_cell_identical\": %s,\n"
               "  \"epoch_gate_pool_gpus\": %d,\n"
               "  \"epochs_executed_off\": %llu,\n"
               "  \"epochs_executed_on\": %llu,\n"
               "  \"epoch_reduction\": %.2f,\n"
               "  \"single_shard_events_per_sec\": %.0f,\n"
               "  \"fleet_ratio\": %.3f,\n"
               "  \"best_large_pool_speedup\": %.2f\n"
               "}\n",
               all_identical ? "true" : "false", single_cell_ok ? "true" : "false",
               kEpochGatePool, static_cast<unsigned long long>(epochs_one_slot),
               static_cast<unsigned long long>(epochs_on), epoch_reduction, single_shard_eps,
               fleet_ratio, best_large_speedup);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return (all_identical && single_cell_ok) ? 0 : 1;
}
