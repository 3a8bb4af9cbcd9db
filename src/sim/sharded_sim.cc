#include "sim/sharded_sim.h"

#include <algorithm>
#include <chrono>

#include "sim/parallel_sweep.h"

namespace aegaeon {

ShardedSim::ShardedSim(int shards, int threads)
    : shards_(std::max(shards, 1)),
      // Default gang width: never more workers than shards (the extras would
      // only idle at every barrier), never more than the sweep-wide default.
      gang_(shards_, threads > 0 ? threads : std::min(shards_, ParallelSweep::DefaultThreads())),
      shard_perf_(static_cast<size_t>(shards_)),
      active_(static_cast<size_t>(shards_), 1),
      last_gang_wait_(static_cast<size_t>(gang_.thread_count()), 0.0) {}

void ShardedSim::Phase(const std::function<void(int)>& fn) { gang_.Run(fn); }

uint64_t ShardedSim::Run(const std::function<EpochPlan()>& plan,
                         const std::function<bool(int, TimePoint)>& has_work,
                         const std::function<uint64_t(int, TimePoint)>& advance) {
  uint64_t ran = 0;
  TimePoint horizon = 0.0;
  const auto epoch = [this, &advance, &horizon](int shard) {
    // Host cost of each shard's epoch advance for the per-shard
    // SimPerfCounters; epoch horizons come from the serial barrier stage,
    // never from this clock.
    // LINT-ALLOW(wall-clock): host-side per-shard SimPerf timing only
    const auto start = std::chrono::steady_clock::now();
    const uint64_t processed = advance(shard, horizon);
    SimPerfCounters& perf = shard_perf_[static_cast<size_t>(shard)];
    perf.events_processed += processed;
    perf.wall_seconds +=
        // LINT-ALLOW(wall-clock): host-side SimPerf timing only
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  for (;;) {
    const EpochPlan next = plan();
    horizon = next.horizon;
    epochs_skipped_ += next.slots_skipped;
    // Serial idle probe: identical for every worker count because it runs
    // with all shards quiescent and reads only shard-owned state.
    bool any_active = false;
    for (int shard = 0; shard < shards_; ++shard) {
      const bool active = has_work(shard, horizon);
      active_[static_cast<size_t>(shard)] = active ? 1 : 0;
      if (active) {
        any_active = true;
      } else {
        ++shard_perf_[static_cast<size_t>(shard)].idle_shard_skips;
      }
    }
    if (any_active) {
      gang_.Run(epoch, &active_);
    }
    ++ran;
    ++epochs_;
    if (horizon >= kTimeNever) {
      break;  // final drain epoch: every shard ran to empty
    }
  }
  // Fold the gang's barrier-wait deltas into the perf counters. Waiting is
  // a per-worker quantity; it is recorded on the shard sharing the worker's
  // index (worker count <= shard count always holds). The global skip count
  // goes to shard 0 so summing shard entries counts it exactly once.
  for (int w = 0; w < gang_.thread_count(); ++w) {
    const double total = gang_.worker_wait_seconds(w);
    shard_perf_[static_cast<size_t>(w)].barrier_wait_seconds +=
        total - last_gang_wait_[static_cast<size_t>(w)];
    last_gang_wait_[static_cast<size_t>(w)] = total;
  }
  shard_perf_[0].epochs_skipped = epochs_skipped_;
  return ran;
}

}  // namespace aegaeon
