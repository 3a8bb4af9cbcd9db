// Simulator-core performance microbenchmark. Tracks two numbers across PRs
// via BENCH_sim_perf.json:
//
//   1. Event-queue hot path: events/sec through schedule -> pop cycles,
//      measured for the current EventQueue (SBO callbacks in a slot array,
//      24-byte POD heap keys) and for an inline replica of the pre-rework
//      queue (std::function callbacks in the heap, plus an unordered_set
//      cancellation check on every front access) running the identical
//      workload. The simulator never cancels events, so neither queue does
//      here; the replica still pays its per-front hash lookup, which is part
//      of what it replicates. The improvement percentage is the EventQueue
//      rework's payoff.
//   2. Sweep throughput: wall-clock for an 8-point x 4-system end-to-end
//      sweep run serially vs. through ParallelSweep, each the minimum of 3
//      alternating repetitions, asserting bit-identical SLO attainment per
//      (point, system) pair on every repetition.
//
// Usage: bench_sim_perf [output.json]   (default BENCH_sim_perf.json)

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "e2e_common.h"
#include "sim/event_queue.h"
#include "sim/parallel_sweep.h"

using namespace aegaeon;
using namespace aegaeon_bench;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// --- Replica of the pre-rework EventQueue ------------------------------
// std::function callbacks (heap-allocating for captures > ~16 bytes) and a
// hash-set cancellation check on every front access. Kept here, not in the
// library, purely as the measurement baseline.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  uint64_t Push(TimePoint when, Callback cb) {
    uint64_t id = next_seq_++;
    heap_.push_back(Entry{when, id, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    ++live_count_;
    return id;
  }

  bool Cancel(uint64_t id) {
    if (id >= next_seq_ || !cancelled_.insert(id).second) {
      return false;
    }
    if (live_count_ > 0) {
      --live_count_;
    }
    return true;
  }

  bool empty() const { return live_count_ == 0; }

  TimePoint NextTime() {
    SkipCancelled();
    return heap_.empty() ? kTimeNever : heap_.front().when;
  }

  TimePoint PopAndRun() {
    SkipCancelled();
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    --live_count_;
    entry.cb();
    return entry.when;
  }

 private:
  struct Entry {
    TimePoint when;
    uint64_t seq;
    Callback cb;
  };

  static bool Later(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  void SkipCancelled() {
    while (!heap_.empty()) {
      auto it = cancelled_.find(heap_.front().seq);
      if (it == cancelled_.end()) {
        return;
      }
      cancelled_.erase(it);
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::unordered_set<uint64_t> cancelled_;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
};

// The churn workload mirrors the simulator's hot loop: batches of pushes
// with capture-carrying callbacks, then a drain through
// NextTime()/PopAndRun() exactly as Simulator::Run does.
template <typename Queue>
double ChurnEventsPerSec(uint64_t target_events, uint64_t* processed_out) {
  Queue queue;
  uint64_t fired = 0;
  // 32-byte capture: over std::function's inline buffer, within
  // EventCallback's 48-byte SBO — the common case for cluster callbacks.
  struct Payload {
    uint64_t a, b, c;
  };
  constexpr int kBatch = 256;
  double t = 0.0;
  auto start = std::chrono::steady_clock::now();
  while (fired < target_events) {
    for (int i = 0; i < kBatch; ++i) {
      Payload payload{fired, static_cast<uint64_t>(i), 42};
      queue.Push(t + i * 1e-6, [payload, &fired] {
        fired += 1 + (payload.c == 0);  // keep the capture alive
      });
    }
    while (!queue.empty()) {
      queue.NextTime();
      queue.PopAndRun();
    }
    t += 1.0;
  }
  double elapsed = Seconds(start);
  *processed_out = fired;
  return elapsed > 0.0 ? static_cast<double>(fired) / elapsed : 0.0;
}

// --- Sweep speedup ------------------------------------------------------

std::vector<SweepCase> BuildSweepCases() {
  std::vector<SweepCase> cases;
  // Heavier markets than the figure sweeps so each task runs long enough to
  // amortize pool overhead and give a stable speedup measurement.
  for (int models : {24, 32, 40, 48, 56, 64, 72, 80}) {
    cases.push_back(SweepCase{
        [models] { return ModelRegistry::MidSizeMarket(models); },
        [](const ModelRegistry& registry) {
          return GeneratePoisson(registry, 0.25, kHorizon, Dataset::ShareGpt(), kSeed);
        }});
  }
  return cases;
}

bool SameResults(const std::vector<E2eResult>& a, const std::vector<E2eResult>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].aegaeon != b[i].aegaeon || a[i].serverless != b[i].serverless ||
        a[i].serverless_plus != b[i].serverless_plus || a[i].muxserve != b[i].muxserve) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_sim_perf.json";
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = ParallelSweep::DefaultThreads();

  std::printf("=== Simulator-core performance (cores=%d, sweep threads=%d) ===\n\n", cores,
              threads);

  // 1. Event-queue hot path. Interleaved best-of-N repetitions: the best
  // rate estimates intrinsic cost robustly even on noisy shared machines.
  constexpr uint64_t kTargetEvents = 1000000;
  constexpr int kReps = 5;
  uint64_t processed = 0;
  uint64_t legacy_processed = 0;
  double legacy_eps = 0.0;
  double current_eps = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    legacy_eps = std::max(legacy_eps, ChurnEventsPerSec<LegacyEventQueue>(kTargetEvents, &processed));
    legacy_processed = processed;
    current_eps = std::max(current_eps, ChurnEventsPerSec<EventQueue>(kTargetEvents, &processed));
  }
  double improvement = legacy_eps > 0.0 ? 100.0 * (current_eps / legacy_eps - 1.0) : 0.0;
  std::printf("event-queue churn (%llu events, 32B captures, push/pop only):\n",
              static_cast<unsigned long long>(processed));
  std::printf("  legacy (std::function + unordered_set): %12.0f events/sec\n", legacy_eps);
  std::printf("  current (SBO callback + POD heap keys):  %12.0f events/sec\n", current_eps);
  std::printf("  improvement: %+.1f%%\n\n", improvement);

  // 2. Sweep speedup: serial loop vs ParallelSweep on the same task list.
  // Each leg's time is the minimum of kSweepReps alternating repetitions
  // (serial, parallel, serial, ...), so a burst of machine load has to hit
  // every repetition of one leg to move the ratio. Every repetition of
  // either leg must reproduce the first serial results bit for bit.
  constexpr int kSweepReps = 3;
  std::vector<SweepCase> cases = BuildSweepCases();
  std::vector<E2eResult> reference;
  bool identical = true;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  for (int rep = 0; rep < kSweepReps; ++rep) {
    for (bool parallel : {false, true}) {
      auto start = std::chrono::steady_clock::now();
      std::vector<E2eResult> results = RunAllSystemsSweep(cases, parallel ? threads : 1);
      double seconds = Seconds(start);
      double& best = parallel ? parallel_seconds : serial_seconds;
      best = rep == 0 ? seconds : std::min(best, seconds);
      if (reference.empty()) {
        reference = std::move(results);
      } else {
        identical = identical && SameResults(reference, results);
      }
    }
  }
  double speedup = parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  std::printf("e2e sweep (%zu points x 4 systems, min of %d alternating reps):\n",
              cases.size(), kSweepReps);
  std::printf("  serial:   %8.2fs\n", serial_seconds);
  std::printf("  parallel: %8.2fs  (%d threads)\n", parallel_seconds, threads);
  std::printf("  speedup: %.2fx, results %s\n\n", speedup,
              identical ? "bit-identical" : "DIVERGED (BUG)");

  // 3. Per-run counters from one representative e2e run.
  ModelRegistry registry = ModelRegistry::MidSizeMarket(24);
  auto trace = GeneratePoisson(registry, 0.1, kHorizon, Dataset::ShareGpt(), kSeed);
  RunMetrics metrics = RunAegaeon(registry, trace);
  std::printf("e2e run counters (24 models): %llu events in %.3fs -> %.0f events/sec\n",
              static_cast<unsigned long long>(metrics.sim.events_processed),
              metrics.sim.wall_seconds, metrics.sim.EventsPerSec());

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"sweep_threads\": %d,\n"
               "  \"queue\": {\n"
               "    \"events\": %llu,\n"
               "    \"legacy_events_per_sec\": %.0f,\n"
               "    \"events_per_sec\": %.0f,\n"
               "    \"improvement_pct\": %.1f\n"
               "  },\n"
               "  \"sweep\": {\n"
               "    \"points\": %zu,\n"
               "    \"systems\": 4,\n"
               "    \"serial_seconds\": %.3f,\n"
               "    \"parallel_seconds\": %.3f,\n"
               "    \"speedup\": %.2f,\n"
               "    \"identical_results\": %s\n"
               "  },\n"
               "  \"e2e_run\": {\n"
               "    \"events\": %llu,\n"
               "    \"wall_seconds\": %.3f,\n"
               "    \"events_per_sec\": %.0f\n"
               "  }\n"
               "}\n",
               cores, threads, static_cast<unsigned long long>(legacy_processed), legacy_eps,
               current_eps, improvement, cases.size(), serial_seconds, parallel_seconds, speedup,
               identical ? "true" : "false",
               static_cast<unsigned long long>(metrics.sim.events_processed),
               metrics.sim.wall_seconds, metrics.sim.EventsPerSec());
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return identical ? 0 : 1;
}
