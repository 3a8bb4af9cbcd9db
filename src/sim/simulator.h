// The discrete-event simulator driving every experiment in this repository.
//
// A Simulator owns the clock and the event queue. Components schedule work
// with At()/After() and query Now(). Run() drains events until the queue is
// empty or a configured horizon is reached.

#ifndef AEGAEON_SIM_SIMULATOR_H_
#define AEGAEON_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace aegaeon {

// Host-side cost of a simulation run. The wall-clock numbers are measured,
// not simulated — they vary run to run and must be excluded from any
// determinism comparison of run results.
struct SimPerfCounters {
  uint64_t events_processed = 0;
  double wall_seconds = 0.0;
  // Largest number of entries the event heap held (EventQueue::heap_peak).
  // Deterministic; pooled runs report the largest of their queues.
  uint64_t heap_peak = 0;
  // --- Conservative-sync epoch loop (sharded execution only; zero for
  // plain runs). ---
  // Lookahead grid slots the epoch loop jumped without a barrier (dead
  // slots snapped over plus slots batched into a wider epoch). A global
  // property of the loop: ShardedSim records it on shard 0's entry so that
  // summing shard entries yields the loop total exactly once.
  uint64_t epochs_skipped = 0;
  // Epochs in which this shard had no runnable work and was not submitted.
  uint64_t idle_shard_skips = 0;
  // Host time this shard's worker spent waiting at the epoch barrier.
  double barrier_wait_seconds = 0.0;

  double EventsPerSec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events_processed) / wall_seconds : 0.0;
  }

  SimPerfCounters& operator+=(const SimPerfCounters& other) {
    events_processed += other.events_processed;
    wall_seconds += other.wall_seconds;
    heap_peak = std::max(heap_peak, other.heap_peak);
    epochs_skipped += other.epochs_skipped;
    idle_shard_skips += other.idle_shard_skips;
    barrier_wait_seconds += other.barrier_wait_seconds;
    return *this;
  }
};

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint Now() const { return now_; }

  // Schedules `cb` at absolute time `when`. Scheduling in the past is a
  // programming error; the event is clamped to Now() to keep time monotonic.
  void At(TimePoint when, EventQueue::Callback cb);

  // Schedules `cb` after `delay` seconds (negative delays clamp to zero).
  void After(Duration delay, EventQueue::Callback cb);

  // Bulk-schedules a batch in input order (FIFO tie-break preserved),
  // clamping past timestamps to Now() like At(). Used by trace loading and
  // the sharded fleet's barrier-stage delivery, where pushing thousands of
  // arrivals one heap sift at a time would dominate the barrier stage.
  // Consumes the callbacks but leaves the storage with the caller (see
  // EventQueue::Merge), so injection scratch keeps its capacity.
  void ScheduleBatch(EventQueue::Pending* batch, size_t count);

  // Time of the earliest pending event; kTimeNever when the queue is empty.
  // The sharded fleet's barrier stage uses this to pick the next horizon
  // and to skip idle cells.
  TimePoint NextEventTime() const { return queue_.NextTime(); }

  // Runs until the queue is empty. Returns the number of events processed.
  uint64_t Run();

  // Runs until the queue is empty or the clock passes `horizon`, whichever
  // comes first. Events scheduled beyond the horizon are left unprocessed and
  // the clock is set to the horizon.
  uint64_t RunUntil(TimePoint horizon);

  // Number of events processed so far across all Run* calls.
  uint64_t events_processed() const { return perf_.events_processed; }

  // Host wall-clock time spent inside Run* calls so far.
  double wall_seconds() const { return perf_.wall_seconds; }

  // Events processed and wall-clock cost across all Run* calls.
  const SimPerfCounters& perf() const { return perf_; }

  bool pending() const { return !queue_.empty(); }

 private:
  EventQueue queue_;
  TimePoint now_ = 0.0;
  SimPerfCounters perf_;
};

}  // namespace aegaeon

#endif  // AEGAEON_SIM_SIMULATOR_H_
