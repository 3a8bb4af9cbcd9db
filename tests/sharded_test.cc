// Tests for the sharded fleet simulation (core/fleet.h, sim/sharded_sim.h):
// conservative-sync determinism, serial equivalence, load
// balancing, and the SimSan per-cell audit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "core/cluster.h"
#include "core/fleet.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "sim/sharded_sim.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace aegaeon {
namespace {

AegaeonConfig SmallCell() {
  AegaeonConfig config;
  config.prefill_instances = 1;
  config.decode_instances = 2;
  return config;
}

std::vector<ArrivalEvent> FleetTrace(const ModelRegistry& registry, double rps, double horizon,
                                     uint64_t seed = 7) {
  return GeneratePoisson(registry, rps, horizon, Dataset::ShareGpt(), seed);
}

// Everything that makes two runs "the same results": full bitwise equality
// of the simulated outputs. Host-measured values (sim/shard_sim wall
// clocks) are deliberately excluded.
void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.tokens_total, b.tokens_total);
  EXPECT_EQ(a.tokens_met, b.tokens_met);
  EXPECT_EQ(a.horizon, b.horizon);  // exact: same double or bust
  EXPECT_EQ(a.rejected_requests, b.rejected_requests);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.slo_good_requests, b.slo_good_requests);
  EXPECT_EQ(a.breakdown.prefill_wait, b.breakdown.prefill_wait);
  EXPECT_EQ(a.breakdown.prefill_exec, b.breakdown.prefill_exec);
  EXPECT_EQ(a.breakdown.decode_wait, b.breakdown.decode_wait);
  EXPECT_EQ(a.breakdown.decode_exec, b.breakdown.decode_exec);
  EXPECT_EQ(a.breakdown.control_overhead, b.breakdown.control_overhead);
  EXPECT_EQ(a.breakdown.data_overhead, b.breakdown.data_overhead);
  ASSERT_EQ(a.ttft_samples.size(), b.ttft_samples.size());
  for (size_t i = 0; i < a.ttft_samples.size(); ++i) {
    EXPECT_EQ(a.ttft_samples[i], b.ttft_samples[i]) << "ttft sample " << i;
  }
  ASSERT_EQ(a.request_latency_samples.size(), b.request_latency_samples.size());
  for (size_t i = 0; i < a.request_latency_samples.size(); ++i) {
    EXPECT_EQ(a.request_latency_samples[i], b.request_latency_samples[i]) << "latency " << i;
  }
  ASSERT_EQ(a.switch_latency_samples.size(), b.switch_latency_samples.size());
  for (size_t i = 0; i < a.switch_latency_samples.size(); ++i) {
    EXPECT_EQ(a.switch_latency_samples[i], b.switch_latency_samples[i]) << "switch " << i;
  }
  EXPECT_EQ(a.sim.events_processed, b.sim.events_processed);
}

TEST(ShardedSimTest, EpochLoopRunsPlanAndAdvance) {
  ShardedSim sharded(4, 2);
  int planned = 0;
  std::vector<int> advances(4, 0);
  uint64_t epochs = sharded.Run(
      [&] {
        ++planned;
        ShardedSim::EpochPlan plan;  // defaults to the final drain epoch
        if (planned < 3) {
          plan.horizon = planned * 10.0;
          plan.slots_skipped = 2;
        }
        return plan;
      },
      /*has_work=*/[](int, TimePoint) { return true; },
      [&](int shard, TimePoint horizon) {
        (void)horizon;
        advances[static_cast<size_t>(shard)]++;
        return uint64_t{5};
      });
  EXPECT_EQ(epochs, 3u);
  EXPECT_EQ(sharded.epochs(), 3u);
  EXPECT_EQ(sharded.epochs_skipped(), 4u);  // two planned epochs, 2 slots each
  for (int count : advances) {
    EXPECT_EQ(count, 3);
  }
  ASSERT_EQ(sharded.shard_perf().size(), 4u);
  for (const SimPerfCounters& perf : sharded.shard_perf()) {
    EXPECT_EQ(perf.events_processed, 15u);
  }
  // The global skip count is stamped on shard 0 only, so summing shard
  // entries counts it exactly once.
  EXPECT_EQ(sharded.shard_perf()[0].epochs_skipped, 4u);
  EXPECT_EQ(sharded.shard_perf()[1].epochs_skipped, 0u);
}

TEST(ShardedSimTest, IdleShardsAreNotSubmitted) {
  ShardedSim sharded(4, 2);
  int planned = 0;
  std::vector<int> advances(4, 0);
  sharded.Run(
      [&] {
        ++planned;
        ShardedSim::EpochPlan plan;
        if (planned < 4) {
          plan.horizon = planned * 10.0;
        }
        return plan;
      },
      // Odd shards idle for the finite epochs; everyone runs the drain.
      [&](int shard, TimePoint horizon) { return horizon >= kTimeNever || shard % 2 == 0; },
      [&](int shard, TimePoint horizon) {
        (void)horizon;
        advances[static_cast<size_t>(shard)]++;
        return uint64_t{1};
      });
  EXPECT_EQ(advances[0], 4);
  EXPECT_EQ(advances[1], 1);
  EXPECT_EQ(advances[2], 4);
  EXPECT_EQ(advances[3], 1);
  EXPECT_EQ(sharded.shard_perf()[0].idle_shard_skips, 0u);
  EXPECT_EQ(sharded.shard_perf()[1].idle_shard_skips, 3u);
  EXPECT_EQ(sharded.shard_perf()[3].idle_shard_skips, 3u);
}

TEST(ShardGangTest, RunsEverySliceEveryRound) {
  ShardGang gang(8, 4);
  EXPECT_EQ(gang.slices(), 8);
  EXPECT_EQ(gang.thread_count(), 4);
  std::vector<int> counts(8, 0);
  for (int round = 0; round < 50; ++round) {
    gang.Run([&](int slice) { counts[static_cast<size_t>(slice)]++; });
  }
  for (int count : counts) {
    EXPECT_EQ(count, 50);
  }
}

TEST(ShardGangTest, MaskSelectsSlices) {
  ShardGang gang(6, 3);
  std::vector<int> counts(6, 0);
  const std::vector<uint8_t> mask = {1, 0, 1, 0, 0, 1};
  for (int round = 0; round < 10; ++round) {
    gang.Run([&](int slice) { counts[static_cast<size_t>(slice)]++; }, &mask);
  }
  const std::vector<int> want = {10, 0, 10, 0, 0, 10};
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], want[i]) << "slice " << i;
  }
}

TEST(ShardGangTest, SingleWorkerRunsInlineAndClampsThreads) {
  // threads > slices clamps to slices; one slice means one (inline) worker.
  ShardGang wide(2, 16);
  EXPECT_EQ(wide.thread_count(), 2);
  ShardGang gang(1, 8);
  EXPECT_EQ(gang.thread_count(), 1);
  int runs = 0;
  gang.Run([&](int slice) {
    EXPECT_EQ(slice, 0);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(gang.worker_wait_seconds(0), 0.0);  // inline rounds never wait
}

// The golden equivalence: one cell, zero dispatch latency => the fleet is
// exactly a plain AegaeonCluster::Run, request for request.
TEST(ShardedFleetTest, SingleCellReproducesSerialClusterExactly) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  auto trace = FleetTrace(registry, 0.2, 120.0);

  AegaeonCluster serial(SmallCell(), registry, GpuSpec::H800());
  RunMetrics golden = serial.Run(trace);

  FleetConfig config;
  config.cells = 1;
  config.shards = 1;
  config.dispatch_latency = 0.0;  // cells == 1: channel disabled anyway
  config.cell = SmallCell();
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  RunMetrics metrics = fleet.Run(trace);

  EXPECT_EQ(fleet.lookahead(), kTimeNever);
  EXPECT_EQ(fleet.epochs(), 1u);  // one exact, unbounded epoch
  ExpectBitIdentical(golden, metrics);
  ASSERT_EQ(fleet.cell(0).requests().size(), serial.requests().size());
  for (size_t i = 0; i < serial.requests().size(); ++i) {
    const Request& a = serial.requests()[i];
    const Request& b = fleet.cell(0).requests()[i];
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.first_token_time, b.first_token_time);
    EXPECT_EQ(a.completion, b.completion);
    EXPECT_EQ(a.tokens_met, b.tokens_met);
  }
}

// The tentpole determinism contract: for a fixed cell decomposition the
// shard count is parallelism only — RunMetrics are bit-identical for
// shards in {1, 2, 4, 8}.
TEST(ShardedFleetTest, ResultsBitIdenticalAcrossShardCounts) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(12);
  auto trace = FleetTrace(registry, 1.0, 90.0, 11);

  std::vector<RunMetrics> results;
  std::vector<uint64_t> epoch_counts;
  std::vector<uint64_t> skip_counts;
  for (int shards : {1, 2, 4, 8}) {
    FleetConfig config;
    config.cells = 8;
    config.shards = shards;
    config.threads = 4;
    config.cell = SmallCell();
    ShardedFleet fleet(config, registry, GpuSpec::H800());
    results.push_back(fleet.Run(trace));
    epoch_counts.push_back(fleet.epochs());
    skip_counts.push_back(fleet.epochs_skipped());
    EXPECT_EQ(fleet.shards(), shards);
    EXPECT_EQ(static_cast<int>(results.back().shard_sim.size()), shards);
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectBitIdentical(results[0], results[i]);
    EXPECT_EQ(results[0].sync_epochs, results[i].sync_epochs);
    EXPECT_EQ(results[0].sync_epochs_skipped, results[i].sync_epochs_skipped);
    EXPECT_EQ(epoch_counts[0], epoch_counts[i]);
    EXPECT_EQ(skip_counts[0], skip_counts[i]);
  }
  EXPECT_GT(results[0].completed_requests, 50u);
  EXPECT_GT(results[0].sync_epochs, 1u);
}

// The tentpole win: on a dense trace (every lookahead slot occupied), the
// quantum-batched barrier executes at least 2x fewer epochs than a
// one-slot-per-barrier protocol would — one epoch per occupied lookahead
// slot plus the drain epoch — and reports what it skipped.
TEST(ShardedFleetTest, EpochSkippingHalvesEpochCountOnDenseTraces) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(12);
  auto trace = FleetTrace(registry, 20.0, 45.0, 17);

  FleetConfig config;
  config.cells = 8;
  config.shards = 4;
  config.threads = 2;
  config.cell = SmallCell();
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  RunMetrics metrics = fleet.Run(trace);
  EXPECT_EQ(metrics.total_requests, trace.size());
  EXPECT_EQ(metrics.sync_epochs_skipped, fleet.epochs_skipped());
  EXPECT_GT(metrics.sync_epochs_skipped, 0u);
  EXPECT_EQ(fleet.audit().sync_overruns, 0u);

  std::set<double> occupied_slots;
  for (const ArrivalEvent& event : trace) {
    occupied_slots.insert(std::floor(event.time / fleet.lookahead()));
  }
  const uint64_t one_slot_epochs = occupied_slots.size() + 1;
  EXPECT_EQ(one_slot_epochs, 901u);  // every 50 ms slot of the 45 s trace
  EXPECT_GE(one_slot_epochs, 2 * fleet.epochs())
      << "skipping: " << fleet.epochs() << " epochs, one slot per epoch: " << one_slot_epochs;
}

TEST(ShardedFleetTest, DispatcherBalancesLoadAcrossCells) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(12);
  auto trace = FleetTrace(registry, 1.0, 90.0, 13);
  FleetConfig config;
  config.cells = 4;
  config.shards = 2;
  config.cell = SmallCell();
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  RunMetrics metrics = fleet.Run(trace);

  uint64_t total_routed = 0;
  uint64_t min_routed = ~uint64_t{0};
  uint64_t max_routed = 0;
  for (uint64_t routed : fleet.routed()) {
    total_routed += routed;
    min_routed = std::min(min_routed, routed);
    max_routed = std::max(max_routed, routed);
  }
  EXPECT_EQ(total_routed, trace.size());
  EXPECT_EQ(metrics.total_requests, trace.size());
  // Least-outstanding routing across identical cells stays within a small
  // factor of even; a broken snapshot would pile everything on cell 0.
  EXPECT_GT(min_routed, 0u);
  EXPECT_LT(max_routed, total_routed / 2);
  // Per-cell metrics cover every cell and merge to the pooled totals.
  ASSERT_EQ(fleet.cell_metrics().size(), 4u);
  uint64_t merged = 0;
  for (const RunMetrics& cell : fleet.cell_metrics()) {
    merged += cell.total_requests;
  }
  EXPECT_EQ(merged, metrics.total_requests);
}

// Dispatch latency is simulated, not elided: every TTFT includes at least
// the router hop, and the arrival timestamps stay client-observed.
TEST(ShardedFleetTest, DispatchLatencyShowsUpInTtft) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(6);
  auto trace = FleetTrace(registry, 0.2, 60.0, 5);
  FleetConfig config;
  config.cells = 2;
  config.shards = 2;
  config.dispatch_latency = 0.5;  // exaggerated so it dominates noise
  config.cell = SmallCell();
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  RunMetrics metrics = fleet.Run(trace);
  ASSERT_FALSE(metrics.ttft_samples.empty());
  for (double ttft : metrics.ttft_samples) {
    EXPECT_GE(ttft, 0.5);
  }
  EXPECT_DOUBLE_EQ(fleet.lookahead(), 0.5);
}

// A multi-cell fleet needs a positive dispatch latency: it is the
// conservative lookahead, and a zero epoch would never advance.
TEST(ShardedFleetDeathTest, NonPositiveDispatchLatencyAborts) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(4);
  FleetConfig config;
  config.cells = 2;
  config.cell = SmallCell();
  config.dispatch_latency = 0.0;
  EXPECT_DEATH({ ShardedFleet fleet(config, registry, GpuSpec::H800()); }, "dispatch_latency");
  config.dispatch_latency = -0.05;
  EXPECT_DEATH({ ShardedFleet fleet(config, registry, GpuSpec::H800()); }, "dispatch_latency");
}

// The per-cell SimSan audit: a sharded run must be violation-free with
// every check attributed, and no cell may overrun an epoch horizon. With
// SimSan compiled out the checks are zero but the protocol audit
// (epochs, overruns) still holds.
TEST(ShardedFleetTest, AuditIsCleanUnderConservativeSync) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  auto trace = FleetTrace(registry, 0.5, 90.0, 3);
  FleetConfig config;
  config.cells = 4;
  config.shards = 4;
  config.threads = 2;
  config.cell = SmallCell();
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  RunMetrics metrics = fleet.Run(trace);
  FleetAudit audit = fleet.audit();
  EXPECT_EQ(audit.violations, 0u);
  EXPECT_EQ(audit.sync_overruns, 0u);
#if AEGAEON_SIMSAN_ENABLED
  EXPECT_GT(audit.checks, 0u);
#endif
  EXPECT_EQ(metrics.sync_epochs, fleet.epochs());
  EXPECT_EQ(metrics.completed_requests, metrics.total_requests);
}

// Satellite: shard-level perf counters aggregate into the pooled RunMetrics.
TEST(ShardedFleetTest, ShardPerfCountersSumToPooled) {
  ModelRegistry registry = ModelRegistry::MidSizeMarket(8);
  auto trace = FleetTrace(registry, 0.5, 60.0, 19);
  FleetConfig config;
  config.cells = 4;
  config.shards = 2;
  config.cell = SmallCell();
  ShardedFleet fleet(config, registry, GpuSpec::H800());
  RunMetrics metrics = fleet.Run(trace);
  ASSERT_EQ(metrics.shard_sim.size(), 2u);
  uint64_t shard_events = 0;
  for (const SimPerfCounters& shard : metrics.shard_sim) {
    shard_events += shard.events_processed;
  }
  // Pooled counters come from the cells (including FinishRun bookkeeping);
  // shard counters cover the epoch advances. They must agree on the events
  // processed during the run.
  EXPECT_EQ(shard_events, metrics.sim.events_processed);
  EXPECT_GT(shard_events, 0u);
}

}  // namespace
}  // namespace aegaeon
