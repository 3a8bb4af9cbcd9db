// Edge cases and small-surface behaviors not covered by the per-module
// suites: empty inputs, no-op paths, boundary configurations.

#include <gtest/gtest.h>

#include "baselines/model_server.h"
#include "core/cluster.h"
#include "hw/gpu_spec.h"
#include "kv/transfer_engine.h"
#include "kv/unified_cache.h"
#include "model/registry.h"
#include "sim/simulator.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

TEST(EdgeTest, EmptyTraceRunsToEmptyMetrics) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  AegaeonConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run({});
  EXPECT_EQ(metrics.total_requests, 0u);
  EXPECT_DOUBLE_EQ(metrics.SloAttainment(), 1.0);
}

TEST(EdgeTest, SingleTokenRequestsFinishAtPrefill) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(2);
  AegaeonConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  std::vector<ArrivalEvent> trace = {
      ArrivalEvent{0.5, 0, 100, 1},
      ArrivalEvent{1.0, 1, 50, 1},
  };
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(trace);
  EXPECT_EQ(metrics.completed_requests, 2u);
  for (const Request& r : cluster.requests()) {
    EXPECT_EQ(r.generated, 1);
    EXPECT_DOUBLE_EQ(r.completion, r.first_token_time);
  }
}

TEST(EdgeTest, MinimalClusterOnePrefillOneDecode) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(3);
  AegaeonConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  auto trace = GeneratePoisson(registry, 0.05, 100.0, Dataset::ShareGpt(), 3);
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(trace);
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
}

TEST(EdgeTest, DeferFreeOfNothingIsNoOp) {
  UnifiedKvCache cache("c", 64 << 20, 16 << 20, 16);
  cache.DeferFree({}, EventSim());
  EXPECT_EQ(cache.move_list_size(), 0u);
  EXPECT_EQ(cache.Reclaim(100.0), 0u);
}

TEST(EdgeTest, ReleaseOfUnmaterializedHandleIsNoOp) {
  UnifiedKvCache gpu("g", 64 << 20, 16 << 20, 16);
  UnifiedKvCache cpu("c", 64 << 20, 16 << 20, 16);
  TransferEngine xfer;
  KvHandle handle;  // location == kNone
  xfer.Release(handle, gpu, cpu);
  EXPECT_EQ(handle.location, KvLocation::kNone);
  EXPECT_EQ(gpu.move_list_size(), 0u);
}

TEST(EdgeTest, ModelServerEstimatedWorkTracksQueueAndBatch) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(1);
  LatencyModel latency(GpuSpec::H800());
  ModelServer server(&registry.Get(0), &latency, 4);
  EXPECT_DOUBLE_EQ(server.EstimatedWork(), 0.0);
  Request r;
  r.model = 0;
  r.prompt_tokens = 200;
  r.output_tokens = 50;
  server.Enqueue(&r);
  double queued = server.EstimatedWork();
  EXPECT_GT(queued, 0.0);
  // After partially serving, the remaining estimate shrinks.
  server.RunSlice(0.0, 0.3);
  EXPECT_LT(server.EstimatedWork(), queued);
}

TEST(EdgeTest, ZeroDecodeBudgetStillServesViaMinimumBatch) {
  // gpu_kv_bytes smaller than one expected request: MaxBatchForModel floors
  // at 1 and the admission budget still lets single requests through.
  ModelRegistry registry = ModelRegistry::MidSizeMarket(2);
  AegaeonConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 1;
  config.gpu_kv_bytes = 1.0 * kGiB;
  std::vector<ArrivalEvent> trace = {ArrivalEvent{0.1, 0, 128, 32},
                                     ArrivalEvent{5.0, 1, 128, 32}};
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(trace);
  EXPECT_EQ(metrics.completed_requests, 2u);
}

TEST(EdgeTest, GpuSpecEffectivePcieMatchesBeta) {
  GpuSpec spec = GpuSpec::H800();
  EXPECT_NEAR(spec.effective_pcie(), spec.pcie_bytes_per_s * 0.625, 1.0);
}

}  // namespace
}  // namespace aegaeon
