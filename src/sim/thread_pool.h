// ShardGang: the one host executor, with machine-checked locking (Clang
// Thread Safety annotations from core/thread_annotations.h; the
// `thread-safety` CI job compiles with -Werror=thread-safety).
//
// Persistent workers for the sharded simulator's epoch loop, where the same
// slice function runs over the same slices thousands of times. Instead of
// submitting one closure per shard per epoch (an allocation, a queue pass
// and a wakeup per task, ~230k submissions for a 128-shard run), the gang
// parks its workers at a sense-reversing barrier (a monotone round counter
// whose advance is the flipped sense) and reuses them every round, and the
// coordinating caller participates as worker 0 instead of sleeping.
// ParallelSweep (sim/parallel_sweep.h) runs each Map as one round of a gang.

#ifndef AEGAEON_SIM_THREAD_POOL_H_
#define AEGAEON_SIM_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace aegaeon {

// Persistent workers advancing fixed slices in lockstep rounds.
//
// The gang owns `slices` slices of work (the sharded simulator's shards, or
// one per ParallelSweep worker) executed by W = min(threads, slices) workers; slice s always runs on
// worker s % W, so the slice -> thread mapping is deterministic. Worker 0
// is the *calling* thread of Run(): it releases the round, executes its own
// slices, then waits for the rest — with W == 1 a round is a plain inline
// loop with no synchronization or spawned threads at all, which keeps
// single-shard runs and one-thread sweeps free of any handoff.
//
// Rounds use a sense-reversing barrier: workers sleep until the round
// counter differs from the value they last served (the generalized flipped
// sense), run their slices, and check in on a countdown the coordinator
// waits on. All handshakes go through one annotated Mutex/CondVar pair —
// uncontended in steady state, since only round edges touch it.
class ShardGang {
 public:
  using SliceFn = std::function<void(int)>;

  // Spawns min(threads, slices) - 1 worker threads (the caller is worker 0).
  // `threads` and `slices` are clamped to >= 1.
  ShardGang(int slices, int threads);

  ShardGang(const ShardGang&) = delete;
  ShardGang& operator=(const ShardGang&) = delete;

  ~ShardGang();

  int slices() const { return slices_; }
  // Total workers including the coordinating caller.
  int thread_count() const { return workers_; }

  // Runs fn(slice) for every slice whose mask entry is nonzero (nullptr
  // mask = all slices), blocking until the round completes. `mask`, when
  // given, must have slices() entries and stay valid for the whole call.
  // Not reentrant: one round at a time, driven by one coordinating thread.
  void Run(const SliceFn& fn, const std::vector<uint8_t>* mask = nullptr);

  // Cumulative host seconds worker `worker` spent blocked at the barrier
  // (waiting for a round to open, or — for worker 0 — for stragglers to
  // finish). Call only between rounds.
  double worker_wait_seconds(int worker) const;

 private:
  void WorkerLoop(int worker) EXCLUDES(mu_);
  // Executes worker `worker`'s slices of the current round.
  void RunSlices(int worker, const SliceFn& fn, const std::vector<uint8_t>* mask);

  int slices_;
  int workers_;
  std::vector<std::thread> threads_;

  mutable Mutex mu_;
  CondVar round_cv_;  // workers: a new round opened (or stop)
  CondVar done_cv_;   // coordinator: all workers checked in
  uint64_t round_ GUARDED_BY(mu_) = 0;
  int running_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  const SliceFn* fn_ GUARDED_BY(mu_) = nullptr;
  const std::vector<uint8_t>* mask_ GUARDED_BY(mu_) = nullptr;
  std::vector<double> wait_seconds_ GUARDED_BY(mu_);
};

}  // namespace aegaeon

#endif  // AEGAEON_SIM_THREAD_POOL_H_
