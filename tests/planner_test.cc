// Tests for the capacity planner: workload matrix accounting, throughput
// profile JSON cache, queueing predictions (including against the real
// simulator), solver determinism/dominance/infeasibility, and the
// closed-loop certification.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "model/registry.h"
#include "planner/planner.h"
#include "planner/queueing.h"
#include "planner/solver.h"
#include "planner/throughput_profile.h"
#include "planner/workload_matrix.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

std::vector<GpuOption> OneGpu(const GpuSpec& spec) {
  GpuOption option;
  option.spec = spec;
  return {option};
}

// --- Bucket grid ---

TEST(BucketGridTest, MapsRequestsToBands) {
  BucketGrid grid = BucketGrid::Default();
  ASSERT_EQ(grid.buckets(), grid.inputs() * grid.outputs());
  EXPECT_EQ(grid.BucketOf(1, 1), 0);
  EXPECT_EQ(grid.InputBucket(64), 0);
  EXPECT_EQ(grid.InputBucket(65), 1);
  // The last band clamps: anything at or beyond the ceiling lands there.
  EXPECT_EQ(grid.InputBucket(8192), grid.inputs() - 1);
  EXPECT_EQ(grid.InputBucket(1 << 20), grid.inputs() - 1);
  // Representative lengths stay inside their band.
  for (int i = 0; i < grid.inputs(); ++i) {
    int64_t rep = grid.InputRep(i);
    EXPECT_EQ(grid.InputBucket(rep), i) << "rep " << rep << " escapes band " << i;
  }
}

// --- Workload matrix ---

TEST(WorkloadMatrixTest, AccountingIsConsistent) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  auto trace = GeneratePoisson(registry, 0.5, 120.0, Dataset::ShareGpt(), 11);
  WorkloadMatrix matrix = BuildWorkloadMatrix(trace, 120.0, registry.size());

  EXPECT_EQ(matrix.requests, trace.size());
  EXPECT_NEAR(matrix.total_rate, static_cast<double>(trace.size()) / 120.0, 1e-9);

  double model_sum = std::accumulate(matrix.model_rate.begin(), matrix.model_rate.end(), 0.0);
  double bucket_sum = std::accumulate(matrix.bucket_rate.begin(), matrix.bucket_rate.end(), 0.0);
  EXPECT_NEAR(model_sum, matrix.total_rate, 1e-9);
  EXPECT_NEAR(bucket_sum, matrix.total_rate, 1e-9);
  for (size_t m = 0; m < matrix.model_bucket_rate.size(); ++m) {
    double row = std::accumulate(matrix.model_bucket_rate[m].begin(),
                                 matrix.model_bucket_rate[m].end(), 0.0);
    EXPECT_NEAR(row, matrix.model_rate[m], 1e-9);
  }
}

TEST(WorkloadMatrixTest, CsvDumpHasHeaderAndRows) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(2);
  auto trace = GeneratePoisson(registry, 0.4, 60.0, Dataset::ShareGpt(), 3);
  WorkloadMatrix matrix = BuildWorkloadMatrix(trace, 60.0, registry.size());
  std::stringstream out;
  WriteMatrixCsv(out, matrix);
  std::string text = out.str();
  EXPECT_NE(text.find("model"), std::string::npos);
  EXPECT_NE(text.find("rate"), std::string::npos);
  // At least one data row beyond the header.
  EXPECT_GT(std::count(text.begin(), text.end(), '\n'), 1);
}

// --- Throughput profile ---

TEST(ThroughputProfileTest, JsonRoundTripsExactly) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(2);
  auto trace = GeneratePoisson(registry, 0.4, 60.0, Dataset::ShareGpt(), 5);
  WorkloadMatrix matrix = BuildWorkloadMatrix(trace, 60.0, registry.size());
  ProfilerOptions options;
  ThroughputProfile profile =
      ProfileThroughput({GpuSpec::H20()}, registry, matrix, options);
  ASSERT_FALSE(profile.entries.empty());

  const std::string path = "/tmp/aegaeon_planner_profile_test.json";
  ASSERT_TRUE(SaveProfileJson(path, profile));
  ThroughputProfile loaded;
  ASSERT_TRUE(LoadProfileJson(path, profile.grid, loaded));
  EXPECT_EQ(loaded.target_attainment, profile.target_attainment);
  ASSERT_EQ(loaded.entries.size(), profile.entries.size());
  for (size_t i = 0; i < profile.entries.size(); ++i) {
    EXPECT_EQ(loaded.entries[i].gpu, profile.entries[i].gpu);
    EXPECT_EQ(loaded.entries[i].model_class, profile.entries[i].model_class);
    EXPECT_EQ(loaded.entries[i].fits, profile.entries[i].fits);
    ASSERT_EQ(loaded.entries[i].tput.size(), profile.entries[i].tput.size());
    for (size_t b = 0; b < profile.entries[i].tput.size(); ++b) {
      // Doubles must round-trip exactly for cache hits to be bit-identical.
      EXPECT_EQ(loaded.entries[i].tput[b], profile.entries[i].tput[b]);
    }
  }
  std::remove(path.c_str());
}

TEST(ThroughputProfileTest, ReadRejectsMalformedNumbers) {
  ThroughputProfile profile;
  profile.grid.input_edges = {512};
  profile.grid.output_edges = {256};
  profile.target_attainment = 0.5;
  profile.entries.push_back(ProfileEntry{"H20", "7B", true, {1.5}});
  std::ostringstream os;
  WriteProfileJson(os, profile);
  const std::string text = os.str();
  ThroughputProfile loaded;
  std::istringstream good(text);
  ASSERT_TRUE(ReadProfileJson(good, loaded));
  EXPECT_EQ(loaded.entries[0].tput[0], 1.5);

  auto with = [&text](const std::string& from, const std::string& to) {
    std::string edited = text;
    size_t at = edited.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return edited.replace(at, from.size(), to);
  };
  for (const std::string& bad :
       {with("[1.5]", "[1.5x]"), with("[1.5]", "[nan]"), with("[1.5]", "[inf]"),
        with("[1.5]", "[1.5 2]"), with("[512]", "[5e]"), with("\"version\": 1", "\"version\": 1.0"),
        with("\"target_attainment\": 0.5", "\"target_attainment\": ")}) {
    std::istringstream is(bad);
    EXPECT_FALSE(ReadProfileJson(is, loaded)) << bad;
  }
}

TEST(ThroughputProfileTest, LoadRejectsGridMismatch) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(1);
  auto trace = GeneratePoisson(registry, 0.4, 30.0, Dataset::ShareGpt(), 5);
  WorkloadMatrix matrix = BuildWorkloadMatrix(trace, 30.0, registry.size());
  ThroughputProfile profile =
      ProfileThroughput({GpuSpec::H20()}, registry, matrix, ProfilerOptions{});
  const std::string path = "/tmp/aegaeon_planner_profile_mismatch.json";
  ASSERT_TRUE(SaveProfileJson(path, profile));

  BucketGrid other = BucketGrid::Default();
  other.input_edges.push_back(other.input_edges.back() * 2);
  ThroughputProfile loaded;
  EXPECT_FALSE(LoadProfileJson(path, other, loaded));
  EXPECT_FALSE(LoadProfileJson("/nonexistent/profile.json", profile.grid, loaded));
  std::remove(path.c_str());
}

TEST(ThroughputProfileTest, CalibrationIsDeterministic) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(1);
  const DeployedModel& model = registry.models()[0];
  ProfilerOptions options;
  double a = CalibratePoint(GpuSpec::H20(), model.spec, model.tp, model.slo, 512, 128, options);
  double b = CalibratePoint(GpuSpec::H20(), model.spec, model.tp, model.slo, 512, 128, options);
  EXPECT_GT(a, 0.0);
  EXPECT_EQ(a, b);
}

// --- Queueing predictions ---

TEST(QueueingTest, ErlangCSanity) {
  // M/M/1: P(wait) equals the utilization.
  EXPECT_NEAR(ErlangC(1, 0.5), 0.5, 1e-12);
  // Unstable queues always wait.
  EXPECT_EQ(ErlangC(2, 2.0), 1.0);
  EXPECT_EQ(ErlangC(2, 5.0), 1.0);
  // More servers at the same offered load wait less.
  EXPECT_LT(ErlangC(4, 1.5), ErlangC(2, 1.5));
}

TEST(QueueingTest, MgcWaitGrowsWithLoadAndVariability) {
  double light = MgcWaitTime(0.2, 1.0, 1.0, 2);
  double heavy = MgcWaitTime(1.5, 1.0, 1.0, 2);
  EXPECT_LT(light, heavy);
  // Allen-Cunneen: higher service variability scales the wait up.
  EXPECT_LT(MgcWaitTime(1.5, 1.0, 0.5, 2), MgcWaitTime(1.5, 1.0, 2.0, 2));
  // Unstable: wait diverges.
  EXPECT_TRUE(std::isinf(MgcWaitTime(3.0, 1.0, 1.0, 2)));
}

TEST(QueueingTest, SwitchProbabilityBounds) {
  for (int instances = 1; instances <= 8; ++instances) {
    double p = SwitchProbability(8, 0.5, 4.0, instances);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // More instances resident means fewer switches.
  EXPECT_LT(SwitchProbability(8, 0.5, 4.0, 6), SwitchProbability(8, 0.5, 4.0, 1));
}

// --- Solver ---

struct SolvedScenario {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  std::vector<ArrivalEvent> trace;
  WorkloadMatrix matrix;
  ThroughputProfile profile;

  explicit SolvedScenario(double rps = 0.5) {
    trace = GeneratePoisson(registry, rps, 120.0, Dataset::ShareGpt(), 21);
    matrix = BuildWorkloadMatrix(trace, 120.0, registry.size());
  }

  void Profile(const std::vector<GpuSpec>& gpus) {
    profile = ProfileThroughput(gpus, registry, matrix, ProfilerOptions{});
  }
};

TEST(SolverTest, SolveIsDeterministic) {
  SolvedScenario s;
  s.Profile({GpuSpec::H800(), GpuSpec::H20()});
  GpuOption h800, h20;
  h800.spec = GpuSpec::H800();
  h20.spec = GpuSpec::H20();
  Solver solver(s.registry, s.profile, {h800, h20});
  PoolPlan a = solver.Solve(s.matrix, SolverOptions{});
  PoolPlan b = solver.Solve(s.matrix, SolverOptions{});
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.cost_per_hour, b.cost_per_hour);
  ASSERT_EQ(a.subpools.size(), b.subpools.size());
  for (size_t i = 0; i < a.subpools.size(); ++i) {
    EXPECT_EQ(a.subpools[i].gpus, b.subpools[i].gpus);
    EXPECT_EQ(a.subpools[i].assigned_rate, b.subpools[i].assigned_rate);
  }
}

TEST(SolverTest, EliminatesDominatedOption) {
  // A strictly weaker clone of the H20 at a higher price: covered on every
  // cell by the real H20 and strictly worse wherever load lands.
  GpuSpec slow = GpuSpec::H20();
  slow.name = "H20-slow";
  slow.peak_fp16_flops *= 0.5;
  slow.hbm_bytes_per_s *= 0.5;
  slow.cost_per_hour *= 2.0;

  SolvedScenario s;
  s.Profile({GpuSpec::H20(), slow});
  GpuOption fast_opt, slow_opt;
  fast_opt.spec = GpuSpec::H20();
  slow_opt.spec = slow;
  Solver solver(s.registry, s.profile, {fast_opt, slow_opt});
  PoolPlan plan = solver.Solve(s.matrix, SolverOptions{});
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.eliminated.size(), 1u);
  EXPECT_NE(plan.eliminated[0].find("H20-slow dominated by"), std::string::npos);
  EXPECT_EQ(plan.counts[1], 0);
  EXPECT_GT(plan.counts[0], 0);
}

TEST(SolverTest, ReportsInfeasibleWhenModelsDoNotFit) {
  // MidSizeMarket includes 9B/13B/14B presets whose weights exceed the
  // A10's scaled-down weight buffer, so an A10-only market cannot serve it.
  SolvedScenario s;
  s.Profile({GpuSpec::A10()});
  Solver solver(s.registry, s.profile, OneGpu(GpuSpec::A10()));
  PoolPlan plan = solver.Solve(s.matrix, SolverOptions{});
  EXPECT_FALSE(plan.feasible);
  EXPECT_FALSE(plan.infeasible_reason.empty());
}

TEST(SolverTest, RepackHonorsFixedComposition) {
  SolvedScenario s;
  s.Profile({GpuSpec::H20()});
  Solver solver(s.registry, s.profile, OneGpu(GpuSpec::H20()));
  PoolPlan solved = solver.Solve(s.matrix, SolverOptions{});
  ASSERT_TRUE(solved.feasible);

  PoolPlan repacked = solver.Repack(s.matrix, SolverOptions{}, solved.counts);
  ASSERT_TRUE(repacked.feasible);
  EXPECT_EQ(repacked.counts, solved.counts);
  double expected_cost = 0.0;
  for (size_t o = 0; o < solved.counts.size(); ++o) {
    expected_cost += solved.counts[o] * solver.options()[o].CostPerHour();
  }
  EXPECT_DOUBLE_EQ(repacked.cost_per_hour, expected_cost);
  // All load must land somewhere.
  double assigned = 0.0;
  for (const SubpoolPlan& subpool : repacked.subpools) {
    assigned += subpool.assigned_rate;
  }
  EXPECT_NEAR(assigned, s.matrix.total_rate, 1e-6);

  // A composition that cannot hold any model is rejected with a reason.
  PoolPlan empty = solver.Repack(s.matrix, SolverOptions{}, {0});
  EXPECT_FALSE(empty.feasible);
  EXPECT_FALSE(empty.infeasible_reason.empty());
}

// --- Closed loop ---

TEST(PlannerTest, CertifiesAndIsDeterministic) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  auto trace = GeneratePoisson(registry, 0.4, 180.0, Dataset::ShareGpt(), 33);

  Planner planner(registry, OneGpu(GpuSpec::H20()));
  PlannerOptions options;
  options.target_attainment = 0.90;
  CertifiedPlan a = planner.Solve(trace, 180.0, options);
  ASSERT_TRUE(a.certified);
  EXPECT_GE(a.replay.SloAttainment(), options.target_attainment);
  EXPECT_GT(a.plan.cost_per_hour, 0.0);
  EXPECT_FALSE(a.rounds.empty());
  EXPECT_TRUE(a.rounds.back().certified);

  CertifiedPlan b = planner.Solve(trace, 180.0, options);
  EXPECT_EQ(a.plan.counts, b.plan.counts);
  EXPECT_EQ(a.replay.SloAttainment(), b.replay.SloAttainment());
  EXPECT_EQ(a.replay.tokens_met, b.replay.tokens_met);
}

TEST(PlannerTest, QueueingPredictionTracksSimulator) {
  // The M/G/c layer steers the search; the simulator is ground truth. On a
  // certified plan the two must agree on stability, and predicted TTFT must
  // be the right order of magnitude (within 10x of the replayed mean).
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  auto trace = GeneratePoisson(registry, 0.4, 180.0, Dataset::ShareGpt(), 33);
  Planner planner(registry, OneGpu(GpuSpec::H20()));
  PlannerOptions options;
  CertifiedPlan result = planner.Solve(trace, 180.0, options);
  ASSERT_TRUE(result.certified);
  ASSERT_FALSE(result.replay.ttft_samples.empty());
  double simulated = 0.0;
  for (double sample : result.replay.ttft_samples) {
    simulated += sample;
  }
  simulated /= static_cast<double>(result.replay.ttft_samples.size());

  for (const SubpoolPlan& subpool : result.plan.subpools) {
    EXPECT_TRUE(subpool.prediction.stable);
    EXPECT_GT(subpool.prediction.ttft, 0.0);
    EXPECT_LT(subpool.prediction.ttft, simulated * 10.0);
    EXPECT_GT(subpool.prediction.ttft, simulated / 10.0);
  }
}

TEST(PlannerTest, RouteTraceConservesArrivals) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  auto trace = GeneratePoisson(registry, 0.4, 120.0, Dataset::ShareGpt(), 7);
  Planner planner(registry, OneGpu(GpuSpec::H20()));
  PlannerOptions options;
  CertifiedPlan result = planner.Solve(trace, 120.0, options);
  ASSERT_TRUE(result.certified);

  auto routed = planner.RouteTrace(result.plan, trace, options.grid);
  ASSERT_EQ(routed.size(), result.plan.subpools.size());
  size_t total = 0;
  for (const auto& sub : routed) {
    total += sub.size();
    // Routed subtraces stay time-ordered (ReadTrace-compatible).
    for (size_t i = 1; i < sub.size(); ++i) {
      EXPECT_LE(sub[i - 1].time, sub[i].time);
    }
  }
  EXPECT_EQ(total, trace.size());
}

}  // namespace
}  // namespace aegaeon
