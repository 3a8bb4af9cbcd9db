// Cross-cutting end-to-end properties of the Aegaeon cluster, swept over
// seeds, loads, and configurations. These are the invariants that must hold
// no matter how the schedulers, caches, and transfer engine interleave.

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "core/cluster.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

struct SweepParam {
  uint64_t seed;
  int models;
  double rps;
  int prefill;
  int decode;
  int nodes;
  int residents;
  int64_t chunk;
};

// Prints the fields, which ctest turns into the test name (gtest's default
// byte dump includes the padding after `models`, which varies per process).
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_models" << p.models << "_rps" << p.rps << "_p" << p.prefill
      << "d" << p.decode << "_nodes" << p.nodes << "_residents" << p.residents << "_chunk"
      << p.chunk;
}

class ClusterPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ClusterPropertyTest, InvariantsHold) {
  const SweepParam& p = GetParam();
  ModelRegistry registry = ModelRegistry::MidSizeMarket(p.models);
  auto trace = GeneratePoisson(registry, p.rps, 120.0, Dataset::ShareGpt(), p.seed);

  AegaeonConfig config;
  config.prefill_instances = p.prefill;
  config.decode_instances = p.decode;
  config.nodes = p.nodes;
  config.resident_models = p.residents;
  config.prefill_chunk_tokens = p.chunk;
  AegaeonCluster cluster(config, registry, GpuSpec::H800());
  RunMetrics metrics = cluster.Run(trace);

  // 1. Liveness: everything completes, nothing is lost or duplicated.
  ASSERT_EQ(metrics.total_requests, trace.size());
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);

  int64_t tokens = 0;
  for (const Request& r : cluster.requests()) {
    // 2. Per-request sanity.
    ASSERT_TRUE(r.finished());
    EXPECT_EQ(r.generated, r.output_tokens);
    EXPECT_LE(r.tokens_met, r.output_tokens);
    EXPECT_GE(r.first_token_time, r.arrival);
    EXPECT_GE(r.completion, r.first_token_time);
    // 3. Breakdown terms are non-negative and bounded by total latency.
    double latency = r.completion - r.arrival;
    EXPECT_GE(r.prefill_wait, 0.0);
    EXPECT_GE(r.decode_wait, 0.0);
    EXPECT_GE(r.prefill_exec, 0.0);
    EXPECT_GE(r.decode_exec, 0.0);
    EXPECT_LE(r.prefill_wait + r.prefill_exec, latency + 1e-6);
    tokens += r.output_tokens;
  }
  EXPECT_EQ(tokens, metrics.tokens_total);

  // 4. Scaling: every recorded switch latency is positive and bounded.
  for (double v : metrics.switch_latency_samples) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 60.0);
  }

  // 5. Memory: after the run drains, CPU KV usage is only move-list residue.
  const UnifiedKvCache& cpu = cluster.cpu_kv_cache();
  EXPECT_LE(cpu.slabs().total_used_bytes(),
            static_cast<uint64_t>(cpu.move_list_size() + 1) * 64 * 1024 * 1024);

  // 6. Utilization fractions are well-formed.
  for (double util : cluster.GpuUtilization(metrics.horizon)) {
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterPropertyTest,
    ::testing::Values(SweepParam{1, 8, 0.10, 2, 2, 1, 1, 0},
                      SweepParam{2, 16, 0.15, 2, 3, 1, 1, 0},
                      SweepParam{3, 24, 0.10, 3, 5, 1, 1, 0},
                      SweepParam{4, 8, 0.30, 2, 3, 1, 1, 0},   // hot market
                      SweepParam{5, 12, 0.10, 2, 3, 2, 1, 0},  // two nodes
                      SweepParam{6, 12, 0.10, 2, 3, 1, 2, 0},  // resident set
                      SweepParam{7, 12, 0.10, 2, 3, 1, 1, 512},  // chunked
                      SweepParam{8, 12, 0.12, 2, 3, 3, 2, 1024},  // everything on
                      SweepParam{9, 40, 0.05, 3, 5, 1, 1, 0},  // wide market
                      SweepParam{10, 6, 0.50, 2, 4, 1, 1, 0}));  // few hot models

}  // namespace
}  // namespace aegaeon
