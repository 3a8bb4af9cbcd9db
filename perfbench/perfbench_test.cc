// The benchmark's own tests: determinism of the fleet workloads across
// shard counts and the timing dispatcher, the fleet audit under SimSan, seed
// plumbing, and the rate_at_slo selection rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sanitizer/simsan.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Every simulated (not host-measured) field of a run.
void ExpectSameSimulation(const WorkloadResult& a, const WorkloadResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.rate_at_slo, b.rate_at_slo);
  for (size_t i = 0; i < a.points.size(); ++i) {
    const SystemResult& p = a.points[i];
    const SystemResult& q = b.points[i];
    EXPECT_EQ(p.digest, q.digest);
    EXPECT_EQ(p.makespan_sum, q.makespan_sum);
    EXPECT_EQ(p.tpot, q.tpot);
    EXPECT_EQ(p.layers.epochs, q.layers.epochs);
    EXPECT_EQ(p.layers.epochs_skipped, q.layers.epochs_skipped);
    EXPECT_EQ(p.layers.switches, q.layers.switches);
    EXPECT_EQ(p.layers.swap_outs, q.layers.swap_outs);
    const aegaeon::RunMetrics& x = p.metrics;
    const aegaeon::RunMetrics& y = q.metrics;
    EXPECT_EQ(x.total_requests, y.total_requests);
    EXPECT_EQ(x.completed_requests, y.completed_requests);
    EXPECT_EQ(x.tokens_total, y.tokens_total);
    EXPECT_EQ(x.tokens_met, y.tokens_met);
    EXPECT_EQ(x.tokens_generated, y.tokens_generated);
    EXPECT_EQ(x.rejected_requests, y.rejected_requests);
    EXPECT_EQ(x.shed_requests, y.shed_requests);
    EXPECT_EQ(x.timed_out_requests, y.timed_out_requests);
    EXPECT_EQ(x.slo_good_requests, y.slo_good_requests);
    EXPECT_EQ(x.ttft_samples, y.ttft_samples);
    EXPECT_EQ(x.breakdown.prefill_wait, y.breakdown.prefill_wait);
    EXPECT_EQ(x.breakdown.decode_wait, y.breakdown.decode_wait);
    EXPECT_EQ(x.sim.events_processed, y.sim.events_processed);
    EXPECT_EQ(x.ctrl.elections, y.ctrl.elections);
    EXPECT_EQ(x.ctrl.failovers, y.ctrl.failovers);
    EXPECT_EQ(x.ctrl.redispatched_requests, y.ctrl.redispatched_requests);
    EXPECT_EQ(x.ctrl.leader_downtime, y.ctrl.leader_downtime);
  }
}

WorkloadResult RunNamed(const std::string& name, uint64_t seed, int shards, bool timing_dispatcher) {
  WorkloadSpec spec;
  EXPECT_TRUE(MakeWorkload(name, &spec));
  const aegaeon::ModelRegistry registry = MakeRegistry(spec);
  RunOptions options;
  options.shards = shards;
  options.timing_dispatcher = timing_dispatcher;
  WorkloadResult result = RunWorkload(spec, registry, GenerateTraces(spec, registry, seed), options);
  EXPECT_TRUE(result.violations.empty()) << result.violations.front();
  return result;
}

class FleetWorkloadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FleetWorkloadTest, IdenticalAcrossShardsAndTimingDispatcher) {
  const WorkloadResult one = RunNamed(GetParam(), 1, 1, true);
  const WorkloadResult two = RunNamed(GetParam(), 1, 2, true);
  const WorkloadResult plain = RunNamed(GetParam(), 1, 2, false);
  ExpectSameSimulation(one, two);
  ExpectSameSimulation(two, plain);
  EXPECT_GT(two.Primary().layers.routes, 0u);
  EXPECT_EQ(plain.Primary().layers.routes, 0u);  // the fleet's own dispatcher ran
}

// Only a library built with SimSan (run.py --self-test builds such a tree)
// runs the checks behind the fleet audit; without it sync_overruns and
// violations stay 0 whatever happens. RunNamed fails on any violation.
TEST_P(FleetWorkloadTest, FleetAuditPassesUnderSimSan) {
  if (!AEGAEON_SIMSAN_ENABLED) {
    GTEST_SKIP() << "library built without AEGAEON_SIMSAN";
  }
  const WorkloadResult result = RunNamed(GetParam(), 1, 0, true);
  for (const SystemResult& point : result.points) {
    EXPECT_GT(point.simsan_checks, 0u) << "at rate " << point.rate;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, FleetWorkloadTest,
                         ::testing::Values("fleet-1024", "overload-faults"),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(name.find('-'), 1);
                           return name;
                         });

TEST(SeedTest, SameSeedSameDigestOtherSeedOtherDigest) {
  const WorkloadResult a = RunNamed("cell-saturated", 7, 0, true);
  const WorkloadResult b = RunNamed("cell-saturated", 7, 0, true);
  const WorkloadResult c = RunNamed("cell-saturated", 8, 0, true);
  ExpectSameSimulation(a, b);
  EXPECT_NE(a.digest, c.digest);
}

TEST(SeedTest, EveryWorkloadIsKnownAndUnknownNamesAreRejected) {
  WorkloadSpec spec;
  for (const std::string& name : WorkloadNames()) {
    ASSERT_TRUE(MakeWorkload(name, &spec));
    EXPECT_EQ(spec.name, name);
    EXPECT_LT(spec.primary, spec.rates.size());
    EXPECT_TRUE(std::is_sorted(spec.rates.begin(), spec.rates.end()));
  }
  EXPECT_FALSE(MakeWorkload("cell", &spec));
}

TEST(RateAtSloTest, PicksHighestRateMeetingTheLineWithoutBacklogGrowth) {
  EXPECT_EQ(RateAtSlo({}), 0.0);
  EXPECT_EQ(RateAtSlo({{0.15, 0.99, false}, {0.30, 0.97, false}, {0.45, 0.93, false},
                       {0.55, 0.85, false}}),
            0.45);
  // Exactly on the line counts.
  EXPECT_EQ(RateAtSlo({{0.15, 0.99, false}, {0.30, 0.90, false}}), 0.30);
  // Attainment above the line but a growing backlog does not count.
  EXPECT_EQ(RateAtSlo({{0.15, 0.99, false}, {0.30, 0.95, true}}), 0.15);
  // A dip below the line is skipped, not a stop: the highest passing rate wins.
  EXPECT_EQ(RateAtSlo({{0.15, 0.89, false}, {0.30, 0.91, false}}), 0.30);
  EXPECT_EQ(RateAtSlo({{0.15, 0.50, false}, {0.30, 0.20, true}}), 0.0);
}

}  // namespace
}  // namespace perfbench
