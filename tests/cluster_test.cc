// Integration tests for the end-to-end Aegaeon cluster (§3.3, §4, §5).

#include <gtest/gtest.h>

#include "analysis/stats.h"
#include "core/cluster.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

AegaeonConfig SmallConfig() {
  AegaeonConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 2;
  return config;
}

std::vector<ArrivalEvent> SmallTrace(const ModelRegistry& registry, double rps = 0.1,
                                     double horizon = 150.0, uint64_t seed = 1) {
  return GeneratePoisson(registry, rps, horizon, Dataset::ShareGpt(), seed);
}

TEST(AegaeonClusterTest, CompletesEveryRequest) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  AegaeonCluster cluster(SmallConfig(), registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry));
  EXPECT_GT(metrics.total_requests, 50u);
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
  for (const Request& r : cluster.requests()) {
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.generated, r.output_tokens);
    EXPECT_GE(r.first_token_time, r.arrival);
    EXPECT_GE(r.completion, r.first_token_time);
  }
}

TEST(AegaeonClusterTest, TokenAccountingIsConservative) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  AegaeonCluster cluster(SmallConfig(), registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry));
  EXPECT_LE(metrics.tokens_met, metrics.tokens_total);
  int64_t sum_tokens = 0;
  for (const Request& r : cluster.requests()) {
    EXPECT_LE(r.tokens_met, r.generated);
    sum_tokens += r.output_tokens;
  }
  EXPECT_EQ(sum_tokens, metrics.tokens_total);
}

TEST(AegaeonClusterTest, ArrivalsStayOutOfTheEventHeap) {
  // The paper's 16-GPU cell (6 prefill + 10 decode, the default config) at
  // 0.45 req/s per model for an hour. The trace is injected up front, in
  // time order, so its arrivals wait in the queue's sorted run and the heap
  // holds only in-flight work: 16 entries at the peak here, measured,
  // against the ~65k arrivals the heap held when they went through it.
  ModelRegistry registry = ModelRegistry::MidSizeMarket(40);
  AegaeonCluster cluster(AegaeonConfig{}, registry, GpuSpec::H800());
  std::vector<ArrivalEvent> trace = SmallTrace(registry, 0.45, 3600.0);
  ASSERT_GT(trace.size(), 60000u);
  RunMetrics metrics = cluster.Run(trace);
  EXPECT_GT(metrics.sim.heap_peak, 0u);
  EXPECT_LE(metrics.sim.heap_peak, 64u);
}

TEST(AegaeonClusterTest, LowLoadAttainsSlos) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(6);
  AegaeonCluster cluster(SmallConfig(), registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry, 0.05));
  EXPECT_GT(metrics.SloAttainment(), 0.95);
  EXPECT_LT(Mean(metrics.ttft_samples), 2.0);
}

TEST(AegaeonClusterTest, DeterministicAcrossRuns) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  auto trace = SmallTrace(registry);
  AegaeonCluster a(SmallConfig(), registry, GpuSpec::H800());
  AegaeonCluster b(SmallConfig(), registry, GpuSpec::H800());
  RunMetrics ma = a.Run(trace);
  RunMetrics mb = b.Run(trace);
  EXPECT_EQ(ma.tokens_met, mb.tokens_met);
  EXPECT_DOUBLE_EQ(ma.horizon, mb.horizon);
  EXPECT_EQ(ma.switch_latency_samples.size(), mb.switch_latency_samples.size());
}

TEST(AegaeonClusterTest, SupportsManyModelsPerGpu) {
  // The headline: far more models than GPUs while holding SLOs at the
  // paper's market load (0.1 rps/model).
  ModelRegistry registry = ModelRegistry::MidSizeMarket(24);
  AegaeonConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 4;
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry, 0.1, 200.0));
  // 24 models on 6 GPUs = 4 models/GPU at healthy attainment.
  EXPECT_GT(metrics.SloAttainment(), 0.85);
}

TEST(AegaeonClusterTest, SwitchesAreSubSecondAtFullOptimization) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(10);
  AegaeonCluster cluster(SmallConfig(), registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry));
  ASSERT_FALSE(metrics.switch_latency_samples.empty());
  // §7.3: preemptive scaling completes in under a second (p95 here; queue
  // transients can push outliers slightly over).
  EXPECT_LT(Percentile(metrics.switch_latency_samples, 95), 1.0);
}

TEST(AegaeonClusterTest, OptLevelsImproveEndToEnd) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(10);
  auto trace = SmallTrace(registry, 0.08, 150.0);
  double attainment[2];
  int i = 0;
  for (OptLevel level : {OptLevel::kComponentReuse, OptLevel::kFineGrainedSync}) {
    AegaeonConfig config = SmallConfig();
    config.opt_level = level;
    config.prefetch = level >= OptLevel::kExplicitMemory;
    AegaeonCluster cluster(config, registry, GpuSpec::H800());
    attainment[i++] = cluster.Run(trace).SloAttainment();
  }
  EXPECT_GT(attainment[1], attainment[0]);
}

TEST(AegaeonClusterTest, BreakdownCoversRequestLifetime) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  AegaeonCluster cluster(SmallConfig(), registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry));
  const LatencyBreakdown& b = metrics.breakdown;
  EXPECT_GT(b.prefill_exec, 0.0);
  EXPECT_GT(b.decode_exec, 0.0);
  EXPECT_GE(b.prefill_wait, 0.0);
  EXPECT_GE(b.decode_wait, 0.0);
  // Total stage time roughly accounts for total request latency.
  double total_latency = 0.0;
  for (const Request& r : cluster.requests()) {
    total_latency += r.completion - r.arrival;
  }
  EXPECT_NEAR(b.Total(), total_latency, total_latency * 0.15);
}

TEST(AegaeonClusterTest, KvCachesDrainAfterRun) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  AegaeonCluster cluster(SmallConfig(), registry, GpuSpec::H800());
  cluster.Run(SmallTrace(registry));
  // After all requests complete, every CPU KV block is either free or
  // parked in a (reclaimable) move list.
  const UnifiedKvCache& cpu = cluster.cpu_kv_cache();
  uint64_t used = cpu.slabs().total_used_bytes();
  uint64_t reclaimable = 0;
  (void)reclaimable;
  // Move lists may still hold final transfers; everything else must be 0.
  EXPECT_LE(used, static_cast<uint64_t>(cpu.move_list_size()) * 64 * 1024 * 1024);
}

TEST(AegaeonClusterTest, TransfersObeyEventOrdering) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  AegaeonCluster cluster(SmallConfig(), registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry));
  const TransferEngine::Stats& stats = cluster.transfer_engine().stats();
  // Every decoded request swapped out of prefill and into decode at least
  // once.
  EXPECT_GE(stats.swap_outs, metrics.completed_requests / 2);
  EXPECT_GT(stats.bytes_out, 0.0);
  EXPECT_GE(stats.bytes_in, 0.0);
}

TEST(AegaeonClusterTest, StricterSlosLowerAttainment) {
  auto run = [](double slo_scale) {
    ModelRegistry registry =
        ModelRegistry::MidSizeMarket(16, SloSpec::Chatbot().Scaled(slo_scale));
    AegaeonConfig config;
    config.prefill_instances = 2;
    config.decode_instances = 3;
    AegaeonCluster cluster(config, registry, GpuSpec::H800());
    auto trace = GeneratePoisson(registry, 0.1, 150.0, Dataset::ShareGpt(), 5);
    return cluster.Run(trace).SloAttainment();
  };
  double normal = run(1.0);
  double strict = run(0.2);
  EXPECT_GE(normal, strict);
}

TEST(AegaeonClusterTest, LargeModelsWithTensorParallelism) {
  // §7.4: 72B models at TP=4, one prefill + one decode instance on 8 GPUs.
  ModelRegistry registry = ModelRegistry::LargeModelMarket(3);
  AegaeonConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  config.instance_tp = 4;
  config.weight_buffer_bytes = 76.0 * kGiB;  // 36 GB shards: room for two
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  auto trace = GeneratePoisson(registry, 0.1, 120.0, Dataset::ShareGpt(), 7);
  RunMetrics metrics = cluster.Run(trace);
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
  EXPECT_GT(metrics.SloAttainment(), 0.7);
}

TEST(AegaeonClusterTest, MixedSloTiersBothServed) {
  // Two SLO tiers in one pool: Algorithm 2's per-batch deadlines must keep
  // both tiers healthy at moderate load (neither starved for the other).
  ModelRegistry registry =
      ModelRegistry::MixedSloMarket(12, SloSpec::Chatbot(), SloSpec{3.0, 0.05});
  AegaeonConfig config;
  config.prefill_instances = 2;
  config.decode_instances = 3;
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry, 0.08));
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
  int64_t met[2] = {0, 0};
  int64_t total[2] = {0, 0};
  for (const Request& r : cluster.requests()) {
    met[r.model % 2] += r.tokens_met;
    total[r.model % 2] += r.output_tokens;
  }
  EXPECT_GT(static_cast<double>(met[0]) / total[0], 0.9);  // relaxed tier
  EXPECT_GT(static_cast<double>(met[1]) / total[1], 0.8);  // strict tier
}

TEST(AegaeonClusterTest, DecodeOverflowQueueDrainsEventually) {
  // A deliberately tiny decode KV budget forces admission back-pressure;
  // everything must still complete once capacity cycles.
  ModelRegistry registry = ModelRegistry::MidSizeMarket(6);
  AegaeonConfig config = SmallConfig();
  config.gpu_kv_bytes = 2.0 * kGiB;
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry, 0.15, 100.0));
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
}

TEST(AegaeonClusterTest, ChunkedPrefillCompletesEverything) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  Dataset long_inputs("ix4", 4.5, 1.1, 5.25, 0.9, /*input_scale=*/4.0, 1.0);
  auto trace = GeneratePoisson(registry, 0.1, 120.0, long_inputs, 61);
  AegaeonConfig config = SmallConfig();
  config.prefill_chunk_tokens = 512;
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(trace);
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
  for (const Request& r : cluster.requests()) {
    EXPECT_TRUE(r.finished());
    // Every prompt fully prefilled regardless of chunk boundaries.
    EXPECT_EQ(r.prefilled_tokens, r.prompt_tokens);
  }
}

TEST(AegaeonClusterTest, ChunkedPrefillBoundsLongPromptHol) {
  // A few giant prompts plus a stream of small ones: chunking caps how long
  // a small request can sit behind a giant prefill.
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  std::vector<ArrivalEvent> trace;
  for (int i = 0; i < 6; ++i) {
    trace.push_back(ArrivalEvent{0.1 + i * 20.0, 0, /*prompt=*/8192, /*output=*/8});
  }
  for (int i = 0; i < 60; ++i) {
    trace.push_back(
        ArrivalEvent{0.2 + i * 2.0, static_cast<ModelId>(1 + i % 3), /*prompt=*/64, 8});
  }
  std::sort(trace.begin(), trace.end(),
            [](const ArrivalEvent& a, const ArrivalEvent& b) { return a.time < b.time; });

  // On an A10 an 8k-token prefill runs for seconds, so chunking visibly
  // bounds the head-of-line wait of the small requests behind it. (On an
  // H800 these prefills are sub-second and chunking is moot — which is why
  // the paper does not need it.)
  auto p99_small_ttft = [&](int64_t chunk) {
    AegaeonConfig config;
    config.prefill_instances = 1;  // force contention on one prefill GPU
    config.decode_instances = 1;
    config.prefill_chunk_tokens = chunk;
    config.weight_buffer_bytes = 15.0 * kGiB;
    config.gpu_kv_bytes = 6.0 * kGiB;
    config.prefetch = false;
    AegaeonCluster cluster(config, registry, GpuSpec::A10());
    cluster.Run(trace);
    std::vector<double> ttfts;
    for (const Request& r : cluster.requests()) {
      if (r.prompt_tokens < 100) {
        ttfts.push_back(r.first_token_time - r.arrival);
      }
    }
    return Percentile(ttfts, 99);
  };
  double unchunked = p99_small_ttft(0);
  double chunked = p99_small_ttft(1024);
  EXPECT_LT(chunked, unchunked);
}

TEST(AegaeonClusterTest, GpuUtilizationIsBounded) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  AegaeonCluster cluster(SmallConfig(), registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(SmallTrace(registry));
  for (double util : cluster.GpuUtilization(metrics.horizon)) {
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace aegaeon
