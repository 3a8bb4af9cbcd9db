// Unit tests for the discrete-event simulation core.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/muxserve.h"
#include "baselines/serverless_llm.h"
#include "core/cluster.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/parallel_sweep.h"
#include "sim/parse_number.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

TEST(ParseNumberTest, AcceptsOnlyOneWholeFiniteNumber) {
  int i = 0;
  double d = 0.0;
  uint64_t u = 0;
  EXPECT_TRUE(ParseNumber("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(ParseNumber("-1.25e2", &d));
  EXPECT_EQ(d, -125.0);
  EXPECT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"", " 4", "4 ", "4x", "0x10", "+", "99999999999"}) {
    EXPECT_FALSE(ParseNumber(bad, &i)) << "'" << bad << "'";
  }
  for (const char* bad : {"", "nan", "inf", "-inf", "1e999", "1.5.2", "0.5s"}) {
    EXPECT_FALSE(ParseNumber(bad, &d)) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseNumber("-1", &u));
  // A rejected value leaves the target untouched.
  EXPECT_EQ(i, 42);
  EXPECT_EQ(d, -125.0);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(3.0, [&] { order.push_back(3); });
  queue.Push(1.0, [&] { order.push_back(1); });
  queue.Push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) {
    queue.PopAndRun();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimestampFiresFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) {
    queue.PopAndRun();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue queue;
  EXPECT_EQ(queue.NextTime(), kTimeNever);
  queue.Push(7.5, [] {});
  queue.Push(2.5, [] {});
  EXPECT_DOUBLE_EQ(queue.NextTime(), 2.5);
}

TEST(EventQueueTest, MergeRangeLeavesCallerStorage) {
  EventQueue queue;
  queue.Push(5.0, [] {});
  std::vector<int> fired;
  std::vector<EventQueue::Pending> scratch;
  scratch.push_back({1.0, EventCallback([&] { fired.push_back(1); })});
  scratch.push_back({1.0, EventCallback([&] { fired.push_back(2); })});
  scratch.push_back({9.0, EventCallback([&] { fired.push_back(3); })});
  const size_t capacity = scratch.capacity();
  queue.Merge(scratch.data(), scratch.size());
  // The storage (and its capacity) stays with the caller for reuse; only
  // the callbacks moved out.
  EXPECT_EQ(scratch.size(), 3u);
  EXPECT_EQ(scratch.capacity(), capacity);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_DOUBLE_EQ(queue.PopAndRun(), 1.0);
  EXPECT_DOUBLE_EQ(queue.PopAndRun(), 1.0);
  ASSERT_EQ(fired.size(), 2u);  // FIFO among equal timestamps
  EXPECT_EQ(fired[0], 1);
  EXPECT_EQ(fired[1], 2);
}

TEST(SimulatorTest, NextEventTimeTracksQueue) {
  Simulator sim;
  EXPECT_EQ(sim.NextEventTime(), kTimeNever);
  sim.At(4.0, [] {});
  sim.At(6.0, [] {});
  EXPECT_DOUBLE_EQ(sim.NextEventTime(), 4.0);
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.NextEventTime(), 6.0);
  sim.Run();
  EXPECT_EQ(sim.NextEventTime(), kTimeNever);
}

TEST(EventCallbackTest, MoveOnlyCapture) {
  auto value = std::make_unique<int>(41);
  EventCallback cb([v = std::move(value)] { *v += 1; });
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_TRUE(cb.is_inline());  // unique_ptr fits the SBO buffer
  EventCallback moved = std::move(cb);
  moved();
}

TEST(EventCallbackTest, SmallCaptureStaysInline) {
  int sum = 0;
  // 40 bytes of capture: under the 48-byte SBO budget.
  struct {
    int* out;
    uint64_t pad[4];
  } payload{&sum, {1, 2, 3, 4}};
  EventCallback cb([payload] { *payload.out += static_cast<int>(payload.pad[3]); });
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(sum, 4);
}

TEST(EventCallbackTest, OversizeCaptureFallsBackToHeap) {
  int sum = 0;
  struct {
    int* out;
    uint64_t pad[16];  // 136 bytes: over the SBO budget
  } payload{&sum, {}};
  payload.pad[15] = 7;
  EventCallback cb([payload] { *payload.out += static_cast<int>(payload.pad[15]); });
  EXPECT_FALSE(cb.is_inline());
  EventCallback moved = std::move(cb);  // heap case: move transfers the pointer
  moved();
  EXPECT_EQ(sum, 7);
}

TEST(EventCallbackTest, MoveOnlyCaptureThroughQueue) {
  EventQueue queue;
  int result = 0;
  auto value = std::make_unique<int>(10);
  queue.Push(1.0, [v = std::move(value), &result] { result = *v; });
  queue.PopAndRun();
  EXPECT_EQ(result, 10);
}

TEST(EventQueueTest, MergePreservesFifoAgainstExistingEvents) {
  // Merged events must keep their input order on timestamp ties, both among
  // themselves and against events already in the queue (existing first:
  // they were scheduled earlier).
  EventQueue queue;
  std::vector<int> order;
  queue.Push(1.0, [&] { order.push_back(1); });
  std::vector<EventQueue::Pending> batch;
  for (int i = 2; i <= 4; ++i) {
    EventQueue::Pending p;
    p.when = 1.0;
    p.cb = [&order, i] { order.push_back(i); };
    batch.push_back(std::move(p));
  }
  queue.Merge(batch.data(), batch.size());
  EXPECT_EQ(queue.size(), 4u);
  while (!queue.empty()) {
    queue.PopAndRun();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, MergeSmallBatchIntoLargeHeapSifts) {
  // A merged event lands between events already in the heap.
  EventQueue queue;
  std::vector<double> fired;
  for (int i = 0; i < 100; ++i) {
    double when = static_cast<double>(i) * 2.0;
    queue.Push(when, [&fired, when] { fired.push_back(when); });
  }
  std::vector<EventQueue::Pending> small;
  EventQueue::Pending odd;
  odd.when = 3.0;
  odd.cb = [&fired] { fired.push_back(3.0); };
  small.push_back(std::move(odd));
  queue.Merge(small.data(), small.size());  // 1 vs 100: sift path
  EXPECT_EQ(queue.size(), 101u);
  while (!queue.empty()) {
    queue.PopAndRun();
  }
  ASSERT_EQ(fired.size(), 101u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(EventQueueTest, SortedRunAndHeapFireInReferenceOrder) {
  // Sorted and unsorted Merges and Pushes, on a coarse time grid so equal
  // timestamps are common, interleaved with pops: the fire order must equal
  // a sort of every event by (when, scheduling order).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue queue;
    std::vector<std::pair<double, int>> scheduled;  // (when, scheduling order)
    std::vector<int> fired;
    double now = 0.0;
    auto next_time = [&] { return now + static_cast<double>(rng.UniformInt(8)) * 0.5; };
    auto schedule_tag = [&](double when) {
      int tag = static_cast<int>(scheduled.size());
      scheduled.emplace_back(when, tag);
      return tag;
    };
    for (int step = 0; step < 300; ++step) {
      double action = rng.NextDouble();
      if (action < 0.3) {
        double when = next_time();
        int tag = schedule_tag(when);
        queue.Push(when, [&fired, tag] { fired.push_back(tag); });
      } else if (action < 0.55) {
        std::vector<EventQueue::Pending> batch(1 + rng.UniformInt(12));
        std::vector<double> times;
        for (size_t i = 0; i < batch.size(); ++i) {
          times.push_back(next_time());
        }
        if (rng.Bernoulli(0.6)) {
          std::sort(times.begin(), times.end());
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          int tag = schedule_tag(times[i]);
          batch[i].when = times[i];
          batch[i].cb = [&fired, tag] { fired.push_back(tag); };
        }
        queue.Merge(batch.data(), batch.size());
      } else if (!queue.empty()) {
        double next = queue.NextTime();
        ASSERT_GE(next, now);
        now = next;
        EXPECT_EQ(queue.PopAndRun(), next);
      }
    }
    while (!queue.empty()) {
      queue.PopAndRun();
    }
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<int> expected;
    for (const auto& event : scheduled) {
      expected.push_back(event.second);
    }
    ASSERT_EQ(fired, expected) << "seed " << seed;
  }
}

TEST(EventQueueTest, SortedMergeStaysOutOfTheHeap) {
  // A trace merged in time order never enters the heap, so the heap's peak
  // counts only the events pushed one at a time.
  EventQueue queue;
  std::vector<EventQueue::Pending> batch(1000);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].when = static_cast<double>(i);
    batch[i].cb = [] {};
  }
  queue.Merge(batch.data(), batch.size());
  queue.Push(0.5, [] {});
  queue.Push(10.5, [] {});
  EXPECT_EQ(queue.size(), 1002u);
  EXPECT_EQ(queue.heap_peak(), 2u);
  while (!queue.empty()) {
    queue.PopAndRun();
  }
}

TEST(SimulatorTest, ScheduleBatchClampsPastTimestamps) {
  Simulator sim;
  std::vector<double> seen;
  sim.At(5.0, [&] { seen.push_back(5.0); });
  sim.Run();
  EXPECT_EQ(sim.Now(), 5.0);
  std::vector<EventQueue::Pending> batch;
  EventQueue::Pending past;
  past.when = 1.0;  // before Now(): must clamp like At()
  past.cb = [&seen, &sim] { seen.push_back(sim.Now()); };
  batch.push_back(std::move(past));
  sim.ScheduleBatch(batch.data(), batch.size());
  sim.Run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], 5.0);
}

TEST(ParallelSweepTest, MapPreservesInputOrder) {
  ParallelSweep sweep(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([i] {
      if (i % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return i * i;
    });
  }
  std::vector<int> results = sweep.Map(std::move(tasks));
  ASSERT_EQ(results.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ParallelSweepTest, ThreadCountEnvOverride) {
  ASSERT_EQ(setenv("AEGAEON_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(ParallelSweep::DefaultThreads(), 3);
  ASSERT_EQ(unsetenv("AEGAEON_SWEEP_THREADS"), 0);
  EXPECT_GE(ParallelSweep::DefaultThreads(), 1);
}

// A bad override is an error, not a silent fallback. Only DefaultThreads()
// runs under the bad value, so no test here starts a thread with it.
TEST(ParallelSweepDeathTest, InvalidThreadCountEnvAborts) {
  for (const char* bad : {"not-a-number", "0", "-2", "1025", "3x"}) {
    ASSERT_EQ(setenv("AEGAEON_SWEEP_THREADS", bad, 1), 0);
    EXPECT_DEATH(ParallelSweep::DefaultThreads(), "AEGAEON_SWEEP_THREADS") << bad;
  }
  ASSERT_EQ(unsetenv("AEGAEON_SWEEP_THREADS"), 0);
}

TEST(ParallelSweepTest, ThrowingTasksRethrowAfterTheOthersRun) {
  // Two of 64 tasks throw, one of them the very first: Map still runs the
  // other 62 before rethrowing one of the two exceptions.
  ParallelSweep sweep(4);
  std::atomic<int> ran{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([i, &ran] {
      if (i == 0 || i == 37) {
        throw std::runtime_error("task " + std::to_string(i));
      }
      ran.fetch_add(1);
      return i;
    });
  }
  try {
    sweep.Map(std::move(tasks));
    ADD_FAILURE() << "Map did not rethrow";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what == "task 0" || what == "task 37") << what;
  }
  EXPECT_EQ(ran.load(), 62);
}

TEST(ParallelSweepTest, OneThreadRunsEveryTaskOnTheCaller) {
  ParallelSweep sweep(1);
  EXPECT_EQ(sweep.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::function<std::thread::id()>> tasks(
      16, [] { return std::this_thread::get_id(); });
  for (std::thread::id id : sweep.Map(std::move(tasks))) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ParallelSweepTest, MoreThreadsThanTasksKeepsInputOrder) {
  ParallelSweep sweep(8);
  EXPECT_EQ(sweep.thread_count(), 8);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 3; ++i) {
    tasks.push_back([i] { return 10 * i + 1; });
  }
  EXPECT_EQ(sweep.Map(std::move(tasks)), (std::vector<int>{1, 11, 21}));
  // The same workers serve the next Map, here an empty one.
  EXPECT_TRUE(sweep.Map(std::vector<std::function<int()>>{}).empty());
}

// --- Determinism under parallelism -------------------------------------

// Full-field comparison of the deterministic parts of RunMetrics. The sim
// perf counters are wall-clock measurements and are deliberately excluded.
void ExpectSameMetrics(const RunMetrics& a, const RunMetrics& b, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.tokens_total, b.tokens_total);
  EXPECT_EQ(a.tokens_met, b.tokens_met);
  EXPECT_EQ(a.horizon, b.horizon);  // bitwise: same double or bust
  EXPECT_EQ(a.breakdown.prefill_wait, b.breakdown.prefill_wait);
  EXPECT_EQ(a.breakdown.prefill_exec, b.breakdown.prefill_exec);
  EXPECT_EQ(a.breakdown.decode_wait, b.breakdown.decode_wait);
  EXPECT_EQ(a.breakdown.decode_exec, b.breakdown.decode_exec);
  EXPECT_EQ(a.breakdown.control_overhead, b.breakdown.control_overhead);
  EXPECT_EQ(a.breakdown.data_overhead, b.breakdown.data_overhead);
  EXPECT_EQ(a.ttft_samples, b.ttft_samples);
  EXPECT_EQ(a.request_latency_samples, b.request_latency_samples);
  EXPECT_EQ(a.switch_latency_samples, b.switch_latency_samples);
  EXPECT_EQ(a.kv_sync_samples, b.kv_sync_samples);
}

TEST(ParallelSweepTest, SweepMatchesSerialBitIdentically) {
  // A shrunk bench_fig11 sweep: (point x system) pairs run once serially in
  // input order and once through an 8-worker ParallelSweep; every pair's
  // RunMetrics must be bit-identical.
  constexpr double kTestHorizon = 30.0;
  constexpr uint64_t kTestSeed = 2025;
  const std::vector<int> model_counts = {8, 16};

  enum SystemKind { kAegaeon, kServerless, kServerlessPlus, kMuxServe, kSystems };
  auto run_pair = [&](int models, int system) {
    ModelRegistry registry = ModelRegistry::MidSizeMarket(models);
    auto trace =
        GeneratePoisson(registry, 0.1, kTestHorizon, Dataset::ShareGpt(), kTestSeed);
    switch (system) {
      case kAegaeon: {
        AegaeonConfig config;
        config.prefill_instances = 6;
        config.decode_instances = 10;
        AegaeonCluster cluster(config, registry, GpuSpec::H800());
        return cluster.Run(trace);
      }
      case kServerless:
      case kServerlessPlus: {
        ServerlessLlmConfig config;
        config.gpus = 16;
        config.sjf = system == kServerlessPlus;
        ServerlessLlmCluster cluster(config, registry, GpuSpec::H800());
        return cluster.Run(trace);
      }
      default: {
        MuxServeConfig config;
        config.gpus = 16;
        MuxServeCluster cluster(config, registry, GpuSpec::H800());
        return cluster.Run(trace);
      }
    }
  };

  std::vector<RunMetrics> serial;
  std::vector<std::function<RunMetrics()>> tasks;
  for (int models : model_counts) {
    for (int system = 0; system < kSystems; ++system) {
      serial.push_back(run_pair(models, system));
      tasks.push_back([&run_pair, models, system] { return run_pair(models, system); });
    }
  }

  ParallelSweep sweep(8);
  std::vector<RunMetrics> parallel = sweep.Map(std::move(tasks));

  ASSERT_EQ(serial.size(), parallel.size());
  const char* names[] = {"aegaeon", "serverless", "serverless+", "muxserve"};
  for (size_t i = 0; i < serial.size(); ++i) {
    std::string label = std::string(names[i % kSystems]) + " models=" +
                        std::to_string(model_counts[i / kSystems]);
    ExpectSameMetrics(serial[i], parallel[i], label.c_str());
  }
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<double> seen;
  sim.At(2.0, [&] { seen.push_back(sim.Now()); });
  sim.At(1.0, [&] {
    seen.push_back(sim.Now());
    sim.After(0.5, [&] { seen.push_back(sim.Now()); });
  });
  sim.Run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[0], 1.0);
  EXPECT_DOUBLE_EQ(seen[1], 1.5);
  EXPECT_DOUBLE_EQ(seen[2], 2.0);
}

TEST(SimulatorTest, SchedulingInThePastClampsToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.At(5.0, [&] {
    sim.At(1.0, [&] { fired_at = sim.Now(); });  // "in the past"
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.At(static_cast<double>(i), [&] { ++fired; });
  }
  uint64_t processed = sim.RunUntil(5.0);
  EXPECT_EQ(processed, 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);
  EXPECT_TRUE(sim.pending());
  sim.Run();
  EXPECT_EQ(fired, 10);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.NextU64() == b.NextU64());
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngTest, LogNormalMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    sum += rng.LogNormal(1.0, 0.5);
  }
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
  EXPECT_NEAR(sum / n, std::exp(1.125), 0.03);
}

TEST(RngTest, PoissonMean) {
  Rng rng(19);
  for (double mean : {0.5, 4.0, 30.0, 120.0}) {
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(rng.Poisson(mean));
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.02) << "mean=" << mean;
  }
}

TEST(ZipfSamplerTest, PmfSumsToOneAndDecreases) {
  ZipfSampler zipf(100, 1.5);
  double total = 0.0;
  for (size_t k = 0; k < 100; ++k) {
    total += zipf.Pmf(k);
    if (k > 0) {
      EXPECT_LE(zipf.Pmf(k), zipf.Pmf(k - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, SampleFrequenciesTrackPmf) {
  ZipfSampler zipf(10, 1.2);
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  for (size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.Pmf(k), 0.01);
  }
}

TEST(PoissonProcessTest, ArrivalsAreMonotoneAndRateCorrect) {
  PoissonProcess process(2.0, 31);
  std::vector<double> arrivals = process.ArrivalsUntil(10000.0);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GT(arrivals[i], arrivals[i - 1]);
  }
  EXPECT_NEAR(static_cast<double>(arrivals.size()) / 10000.0, 2.0, 0.1);
}

}  // namespace
}  // namespace aegaeon
