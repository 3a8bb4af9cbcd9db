// Tests for model specs (Table 1 must reproduce exactly) and the analytical
// latency model (Appendix A.2).

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "hw/gpu_spec.h"
#include "model/latency_model.h"
#include "model/model_spec.h"
#include "model/registry.h"
#include "sim/random.h"

namespace aegaeon {
namespace {

// --- Table 1: KV cache shape and per-token size -------------------------

struct Table1Row {
  ModelSpec spec;
  std::string shape;
  double kv_kb;
};

// Prints the fields, which ctest turns into the test name (gtest's default
// byte dump includes the heap pointer of `spec.name`). The shape prints as
// e.g. 32x2x32x128, without the parentheses and spaces of its ToString.
void PrintTo(const Table1Row& row, std::ostream* os) {
  *os << row.spec.name << "_shape";
  for (char c : row.shape) {
    if (c == ',') {
      *os << 'x';
    } else if (c != '(' && c != ')' && c != ' ') {
      *os << c;
    }
  }
  *os << "_kv" << row.kv_kb << "KB";
}

class Table1Test : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Test, ShapeAndSizeMatchPaper) {
  const Table1Row& row = GetParam();
  EXPECT_EQ(row.spec.kv_shape().ToString(), row.shape);
  EXPECT_DOUBLE_EQ(row.spec.kv_bytes_per_token() / 1024.0, row.kv_kb);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table1Test,
    ::testing::Values(Table1Row{ModelSpec::Qwen7B(), "(32, 2, 32, 128)", 512.0},
                      Table1Row{ModelSpec::InternLm2_7B(), "(32, 2, 8, 128)", 128.0},
                      Table1Row{ModelSpec::Llama13B(), "(40, 2, 40, 128)", 800.0},
                      Table1Row{ModelSpec::Qwen72B(), "(80, 2, 64, 128)", 2560.0}));

TEST(ModelSpecTest, WeightBytesFollowParamCount) {
  EXPECT_DOUBLE_EQ(ModelSpec::Llama13B().weight_bytes(), 26e9);
  EXPECT_DOUBLE_EQ(ModelSpec::Qwen7B().weight_bytes(), 14e9);
  EXPECT_DOUBLE_EQ(ModelSpec::Qwen72B().weight_bytes(), 144e9);
}

TEST(ModelSpecTest, ParamCountApproximatesArchitecture) {
  // L * (4h^2 + 2hm) should be within ~20% of the nominal parameter count
  // (embeddings and norms excluded).
  for (const ModelSpec& spec : {ModelSpec::Qwen7B(), ModelSpec::Llama13B(), ModelSpec::Yi6B(),
                                ModelSpec::Qwen72B(), ModelSpec::InternLm2_7B()}) {
    double h = spec.hidden_size;
    double m = spec.ffn_intermediate;
    double derived = spec.num_layers * (4.0 * h * h + 2.0 * h * m);
    double nominal = spec.params_billion * 1e9;
    EXPECT_GT(derived, nominal * 0.6) << spec.name;
    EXPECT_LT(derived, nominal * 1.4) << spec.name;
  }
}

// --- Latency model -------------------------------------------------------

class LatencyModelTest : public ::testing::Test {
 protected:
  LatencyModel latency_{GpuSpec::H800()};
};

TEST_F(LatencyModelTest, PrefillGrowsWithTokens) {
  ModelSpec spec = ModelSpec::Qwen7B();
  Duration t256 = latency_.PrefillOne(spec, 1, 256);
  Duration t1024 = latency_.PrefillOne(spec, 1, 1024);
  Duration t4096 = latency_.PrefillOne(spec, 1, 4096);
  EXPECT_LT(t256, t1024);
  EXPECT_LT(t1024, t4096);
  // Super-linear at long prompts (attention's t^2 term).
  EXPECT_GT(t4096 / t1024, 3.5);
}

TEST_F(LatencyModelTest, PrefillBatchesRegularlyUnderOneSecond) {
  // §4.2: "the time for a prefill batch regularly falls below one second on
  // contemporary GPUs."
  ModelSpec spec = ModelSpec::Llama13B();
  EXPECT_LT(latency_.Prefill(spec, 1, 8 * 512, 8.0 * 512 * 512), 1.0);
}

TEST_F(LatencyModelTest, DecodeStepIsTensOfMilliseconds) {
  // §4.3: decode step time t "is typically small (e.g., tens of
  // milliseconds)".
  for (const ModelSpec& spec : {ModelSpec::Qwen7B(), ModelSpec::Llama13B()}) {
    Duration step = latency_.DecodeStep(spec, 1, 2048);
    EXPECT_GT(step, 0.005) << spec.name;
    EXPECT_LT(step, 0.050) << spec.name;
  }
}

TEST_F(LatencyModelTest, DecodeGrowsWithContext) {
  ModelSpec spec = ModelSpec::Qwen7B();
  EXPECT_LT(latency_.DecodeStep(spec, 1, 1000), latency_.DecodeStep(spec, 1, 100000));
}

TEST_F(LatencyModelTest, TensorParallelismSpeedsUpBothPhases) {
  ModelSpec spec = ModelSpec::Qwen72B();
  EXPECT_GT(latency_.PrefillOne(spec, 1, 1024), latency_.PrefillOne(spec, 4, 1024));
  EXPECT_GT(latency_.DecodeStep(spec, 1, 1024), latency_.DecodeStep(spec, 4, 1024));
  EXPECT_GT(latency_.SwitchLoad(spec, 1), latency_.SwitchLoad(spec, 4));
}

TEST_F(LatencyModelTest, OptimizedSwitchLoadsAreSubSecond) {
  // §5.2: optimized model loading comes in "under one second" for the
  // 6-14B market on the H800 testbed.
  for (const ModelSpec& spec : {ModelSpec::Qwen7B(), ModelSpec::Llama13B(),
                                ModelSpec::Qwen14B(), ModelSpec::Yi6B()}) {
    EXPECT_LT(latency_.SwitchLoad(spec, 1), 1.0) << spec.name;
    EXPECT_GT(latency_.SwitchLoad(spec, 1), 0.1) << spec.name;
  }
}

TEST_F(LatencyModelTest, NaiveLoadMatchesFigure7) {
  // Figure 7: loading LLaMA-13B at TP=2 via the unoptimized path takes
  // ~4.6 s at the measured 2.83 GB/s.
  EXPECT_NEAR(latency_.NaiveLoad(ModelSpec::Llama13B(), 2, 2.83e9), 4.59, 0.05);
}

// --- Registry -------------------------------------------------------------

TEST(ModelRegistryTest, MidSizeMarketCyclesPresets) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(14);
  EXPECT_EQ(registry.size(), 14u);
  for (ModelId id = 0; id < 14; ++id) {
    const DeployedModel& model = registry.Get(id);
    EXPECT_EQ(model.id, id);
    EXPECT_EQ(model.tp, 1);
    EXPECT_GE(model.spec.params_billion, 6.0);
    EXPECT_LE(model.spec.params_billion, 14.0);
  }
  // Names are unique.
  EXPECT_NE(registry.Get(0).spec.name, registry.Get(6).spec.name);
}

TEST(ModelRegistryTest, LargeMarketUsesTp4) {
  ModelRegistry registry = ModelRegistry::LargeModelMarket(4);
  for (const DeployedModel& model : registry.models()) {
    EXPECT_EQ(model.tp, 4);
    EXPECT_DOUBLE_EQ(model.spec.params_billion, 72.0);
    EXPECT_DOUBLE_EQ(model.shard_bytes(), 36e9);
  }
}

TEST(ModelRegistryTest, SloPropagates) {
  SloSpec strict = SloSpec::Chatbot().Scaled(0.2);
  ModelRegistry registry = ModelRegistry::MidSizeMarket(3, strict);
  EXPECT_DOUBLE_EQ(registry.Get(1).slo.ttft, 2.0);
  EXPECT_NEAR(registry.Get(1).slo.tbt, 0.020, 1e-12);
}

TEST(ModelRegistryTest, MixedSloMarketAlternatesTiers) {
  SloSpec a = SloSpec::Chatbot();
  SloSpec b{3.0, 0.05};
  ModelRegistry registry = ModelRegistry::MixedSloMarket(6, a, b);
  for (ModelId id = 0; id < 6; ++id) {
    const SloSpec& slo = registry.Get(id).slo;
    if (id % 2 == 0) {
      EXPECT_DOUBLE_EQ(slo.ttft, a.ttft) << id;
    } else {
      EXPECT_DOUBLE_EQ(slo.tbt, b.tbt) << id;
    }
  }
}

TEST(SloSpecTest, DeadlinesAreAnchoredAtArrival) {
  SloSpec slo{10.0, 0.1};
  EXPECT_DOUBLE_EQ(slo.DeadlineFor(5.0, 0), 15.0);
  EXPECT_DOUBLE_EQ(slo.DeadlineFor(5.0, 10), 16.0);
}

TEST(SloSpecTest, CountMetTokensMatchesPerTokenLoop) {
  // The O(1) answer must equal the per-token test whenever it is taken.
  struct Case {
    SloSpec slo;
    TimePoint arrival;
    int64_t first_index;
    TimePoint start;
    Duration step;
    int64_t count;
  };
  std::vector<Case> cases = {
      {{10.0, 0.1}, 0.0, 0, 1.0, 0.03, 50},       // all met
      {{10.0, 0.1}, 0.0, 0, 20.0, 0.03, 50},      // all missed
      {{10.0, 0.1}, 0.0, 0, 9.0, 0.2, 30},        // a deadline falls inside the turn
      {{10.0, 0.1}, 0.0, 5, 10.4, 0.1, 40},       // step == tbt, on the boundary
      {{10.0, 0.1}, 0.0, 5, 10.4 + 1e-9, 0.1, 40},
      {{10.0, 0.1}, 99990.0, 3, 100000.3, 0.1, 400},  // near 1e5 s, step == tbt
      {{10.0, 0.1}, 99990.0, 0, 99995.0, 0.09, 400},
      {{1.0, 0.02}, 5.0, 7, 6.0, 0.021, 1000},
  };
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    SloSpec slo{0.5 + 10.0 * rng.NextDouble(), 0.01 + 0.2 * rng.NextDouble()};
    TimePoint arrival = 1e5 * rng.NextDouble();
    int64_t first = static_cast<int64_t>(rng.UniformInt(500));
    TimePoint start = arrival + slo.ttft + static_cast<double>(first) * slo.tbt +
                      (rng.NextDouble() - 0.5) * 4.0;
    Duration step = rng.Bernoulli(0.2) ? slo.tbt : slo.tbt * (0.5 + rng.NextDouble());
    cases.push_back({slo, arrival, first, start, step, 1 + static_cast<int64_t>(rng.UniformInt(300))});
  }
  for (const Case& c : cases) {
    EXPECT_EQ(c.slo.CountMetTokens(c.arrival, c.first_index, c.start, c.step, c.count),
              c.slo.CountMetTokensSlow(c.arrival, c.first_index, c.start, c.step, c.count))
        << c.arrival << " " << c.first_index << " " << c.start << " " << c.step << " "
        << c.count;
  }
}

}  // namespace
}  // namespace aegaeon
