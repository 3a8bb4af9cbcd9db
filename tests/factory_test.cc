// Tests for the serving-system factory: every name in SystemSpecFromName's
// table builds the same system as the concrete class configured by hand,
// and the fleet's pooled per-model report matches a plain cluster's.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "systems/factory.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

class FactoryTest : public ::testing::Test {
 protected:
  FactoryTest()
      : registry_(ModelRegistry::MidSizeMarket(12)),
        trace_(GeneratePoisson(registry_, 0.1, 120.0, Dataset::ShareGpt(), 2025)) {}

  RunMetrics RunNamed(const std::string& name) {
    SystemSpec spec;
    EXPECT_TRUE(SystemSpecFromName(name, &spec)) << name;
    return MakeServingSystem(spec, registry_, GpuSpec::H800())->Run(trace_);
  }

  // The hand-built system of each name, configured as aegaeon_sim's
  // defaults (16 GPUs; 6 prefill + 10 decoding instances) configure it.
  RunMetrics RunByHand(const std::string& name) {
    const GpuSpec gpu = GpuSpec::H800();
    if (name == "aegaeon") {
      AegaeonConfig config;
      config.prefill_instances = 6;
      config.decode_instances = 10;
      return AegaeonCluster(config, registry_, gpu).Run(trace_);
    }
    if (name == "sllm" || name == "sllm+") {
      ServerlessLlmConfig config;
      config.gpus = 16;
      config.sjf = name == "sllm+";
      return ServerlessLlmCluster(config, registry_, gpu).Run(trace_);
    }
    if (name == "mux") {
      MuxServeConfig config;
      config.gpus = 16;
      return MuxServeCluster(config, registry_, gpu).Run(trace_);
    }
    if (name == "dedicated") {
      return DedicatedCluster(DedicatedConfig{}, registry_, gpu).Run(trace_);
    }
    UnifiedConfig config;
    config.instances = 16;
    config.policy =
        name == "unified-pf" ? UnifiedPolicy::kPrefillFirst : UnifiedPolicy::kDecodeFirst;
    return UnifiedCluster(config, registry_, gpu).Run(trace_);
  }

  ModelRegistry registry_;
  std::vector<ArrivalEvent> trace_;
};

TEST_F(FactoryTest, EveryNameBuildsTheHandConfiguredSystem) {
  for (const std::string name :
       {"aegaeon", "sllm", "sllm+", "mux", "dedicated", "unified-pf", "unified-df"}) {
    SCOPED_TRACE(name);
    RunMetrics factory = RunNamed(name);
    RunMetrics by_hand = RunByHand(name);
    EXPECT_EQ(factory.SloAttainment(), by_hand.SloAttainment());
    EXPECT_EQ(factory.completed_requests, by_hand.completed_requests);
    EXPECT_EQ(factory.ttft_samples, by_hand.ttft_samples);
  }
}

TEST_F(FactoryTest, TraceSeparatesVariantsOfOneClass) {
  // The trace separates the variants that share a class, so the test above
  // would catch sllm+ without SJF or unified-df run prefill-first.
  EXPECT_NE(RunByHand("sllm").ttft_samples, RunByHand("sllm+").ttft_samples);
  EXPECT_NE(RunByHand("unified-pf").ttft_samples, RunByHand("unified-df").ttft_samples);
}

TEST(SystemSpecFromNameTest, RejectsUnknownNames) {
  for (const std::string name : {"", "bogus", "SLLM", "unified", "aegaeon "}) {
    SystemSpec spec = MuxServeConfig{};
    EXPECT_FALSE(SystemSpecFromName(name, &spec)) << "'" << name << "'";
    EXPECT_TRUE(std::holds_alternative<MuxServeConfig>(spec)) << "'" << name << "'";
  }
}

TEST_F(FactoryTest, OneCellFleetReportsLikeThePlainCluster) {
  FleetConfig config;
  config.dispatch_latency = 0.0;
  std::unique_ptr<ServingSystem> fleet = MakeServingSystem(config, registry_, GpuSpec::H800());
  std::unique_ptr<ServingSystem> cluster =
      MakeServingSystem(config.cell, registry_, GpuSpec::H800());
  fleet->Run(trace_);
  cluster->Run(trace_);
  std::vector<ModelReport> pooled = fleet->PerModelReport();
  std::vector<ModelReport> plain = cluster->PerModelReport();
  ASSERT_EQ(pooled.size(), plain.size());
  ASSERT_FALSE(plain.empty());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(pooled[i].id, plain[i].id);
    EXPECT_EQ(pooled[i].requests, plain[i].requests);
    EXPECT_EQ(pooled[i].tokens_met, plain[i].tokens_met);
    EXPECT_EQ(pooled[i].mean_ttft, plain[i].mean_ttft);
  }
}

TEST_F(FactoryTest, FleetReportPoolsEveryCell) {
  FleetConfig config;
  config.cells = 3;
  std::unique_ptr<ServingSystem> fleet = MakeServingSystem(config, registry_, GpuSpec::H800());
  fleet->Run(trace_);
  uint64_t requests = 0;
  for (const ModelReport& row : fleet->PerModelReport()) {
    requests += row.requests;
  }
  EXPECT_EQ(requests, trace_.size());
}

}  // namespace
}  // namespace aegaeon
