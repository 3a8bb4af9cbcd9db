// ShardedSim: a conservative-time parallel executor for sharded simulations.
//
// The fleet (src/core/fleet.h) partitions a large GPU pool into cells and
// groups the cells into K shards. Each shard owns its own event queues and
// advances independently — but only up to a horizon no shard may cross, the
// *conservative lookahead*: the latency of the one channel through which a
// shard can be affected from outside (the fleet's request dispatch hop).
// Anything a shard does before the horizon cannot be observed by another
// shard until at least one lookahead later, so running the shards in
// parallel within an epoch cannot reorder observable events.
//
// ShardedSim is the executor for that protocol. Run() alternates two stages:
//
//   1. a serial *barrier stage* (`plan`) that runs with every shard quiescent
//      at the barrier time — it makes dispatch decisions, delivers their
//      results into the shards, and picks the next horizon (possibly skipping
//      over lookahead slots in which nothing observable happens);
//   2. a parallel *advance stage* (`advance`) that runs every shard with
//      runnable work up to that horizon on a gang of persistent workers
//      (ShardGang); shards the serial `has_work` probe marks idle are not
//      submitted at all.
//
// Determinism: the barrier stage is serial, and the advance stage gives each
// shard exclusive ownership of its state, so host scheduling decides only
// *when* a shard's epoch executes, never what it computes. The idle-shard
// probe runs serially between epochs and is a pure function of shard state,
// so it too is identical for every worker count. Results are therefore
// bit-identical for any shard count and any worker count (see DESIGN.md §8
// for the full argument).
//
// Worker scheduling: the shards are fixed slices of a ShardGang — persistent
// threads parked at a sense-reversing barrier, with the coordinating thread
// participating as worker 0. With fewer workers than shards each worker
// serves several shards per round; with one worker (or one shard) every
// epoch runs inline on the caller with no synchronization at all.

#ifndef AEGAEON_SIM_SHARDED_SIM_H_
#define AEGAEON_SIM_SHARDED_SIM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "sim/thread_pool.h"
#include "sim/time.h"

namespace aegaeon {

class ShardedSim {
 public:
  // What the barrier stage decided for the next epoch.
  struct EpochPlan {
    // Advance horizon; kTimeNever requests the final drain epoch.
    TimePoint horizon = kTimeNever;
    // Lookahead grid slots jumped without a barrier to reach this horizon
    // (dead slots snapped over plus extra slots batched into the epoch).
    // Accumulated into epochs_skipped().
    uint64_t slots_skipped = 0;
  };

  // `threads` <= 0 selects min(shards, ParallelSweep::DefaultThreads()).
  explicit ShardedSim(int shards, int threads = 0);

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  int shards() const { return shards_; }
  int thread_count() const { return gang_.thread_count(); }

  // Epochs executed (barrier + advance rounds) across all Run() calls.
  uint64_t epochs() const { return epochs_; }
  // Lookahead slots skipped without a barrier across all Run() calls.
  uint64_t epochs_skipped() const { return epochs_skipped_; }

  // Host-side cost per shard: events processed by that shard's advance
  // stages, the wall-clock time they took (measured inside the shard slice,
  // so queueing delay is excluded when shards outnumber workers), epochs
  // the shard sat out (idle_shard_skips), and barrier wait (per *worker*,
  // recorded on the shard sharing the worker's index; epochs_skipped is
  // global and recorded on shard 0 — see SimPerfCounters).
  const std::vector<SimPerfCounters>& shard_perf() const { return shard_perf_; }

  // Runs `fn(shard)` for every shard in parallel and blocks until all
  // complete. One-shot phases (construction, teardown audits) use this
  // directly; Run() uses the same gang for every advance stage.
  void Phase(const std::function<void(int)>& fn);

  // Executes the epoch loop. `plan` is the serial barrier stage: it runs
  // with all shards quiescent and returns the next epoch's horizon (plus
  // the slots it skipped), kTimeNever requesting a final drain epoch
  // (advance every shard until its queue is empty) after which the loop
  // ends. `has_work` is probed serially after each plan: shards for which
  // it returns false are counted in idle_shard_skips and not run this
  // epoch — it must answer "could this shard process any event at or
  // before this horizon?". `advance` runs on the gang with exclusive
  // ownership of its shard; it must process events only up to the given
  // horizon and return how many it processed. Returns the number of epochs
  // executed by this call.
  uint64_t Run(const std::function<EpochPlan()>& plan,
               const std::function<bool(int, TimePoint)>& has_work,
               const std::function<uint64_t(int, TimePoint)>& advance);

 private:
  int shards_;
  ShardGang gang_;
  uint64_t epochs_ = 0;
  uint64_t epochs_skipped_ = 0;
  std::vector<SimPerfCounters> shard_perf_;
  std::vector<uint8_t> active_;          // reused per-epoch shard mask
  std::vector<double> last_gang_wait_;   // worker wait snapshot for deltas
};

}  // namespace aegaeon

#endif  // AEGAEON_SIM_SHARDED_SIM_H_
