// Algorithm 1: grouped FCFS scheduling for the prefill phase (§4.2).
//
// Requests for the same model are grouped (up to MAX_GPSIZE accumulated
// jobs per group) to amortize auto-scaling; new groups go to the least
// loaded instance, where load is the estimated time to finish all pending
// groups including switching. Group sizes only accumulate — executing a
// request does not free a slot — so the policy never strays far from FCFS.

#ifndef AEGAEON_CORE_PREFILL_SCHEDULER_H_
#define AEGAEON_CORE_PREFILL_SCHEDULER_H_

#include <deque>
#include <functional>
#include <vector>

#include "core/request.h"
#include "model/registry.h"
#include "sim/time.h"

namespace aegaeon {

class PrefillScheduler {
 public:
  // Callbacks decouple the scheduler from the execution substrate:
  //   exec_estimate(r): predicted prefill time of request r (Eq. 5);
  //   switch_estimate(from, to): predicted auto-scaling time (Eq. 4);
  //   current_model(i): model resident on prefill instance i.
  // The two estimates must be pure functions of their arguments: the running
  // load sums take out exactly what they put in by calling them again.
  struct Estimators {
    std::function<Duration(const Request&)> exec_estimate;
    std::function<Duration(ModelId, ModelId)> switch_estimate;
    std::function<ModelId(int)> current_model;
  };

  PrefillScheduler(int instances, int max_group_size, Estimators estimators);

  // Algorithm 1, arrival event. Returns the instance the request landed on.
  int OnArrival(Request* request);

  // Algorithm 1, line 15: next request from the front group of instance
  // `i`'s job queue, or nullptr if the queue is drained. Exhausted front
  // groups are retired as a side effect.
  Request* NextJob(int i);

  // Model of the group that would run after the front group on instance
  // `i` — the prefetch hint. kInvalidModel when there is no such group.
  ModelId UpcomingModel(int i) const;

  bool HasWork(int i) const;
  size_t QueuedRequests(int i) const;

  // Estimated time to drain instance `i`'s queue (execution + switching).
  // O(1): the queue keeps running sums, and only the switch from the
  // instance's resident model to the front group is estimated per call.
  Duration LoadEstimate(int i) const;

  // Marks instance `i` (un)available for dispatch (fault tolerance). An
  // unavailable instance receives no new groups and existing groups on it
  // accept no joins. If every instance is unavailable, arrivals fall back
  // to instance 0 and wait for recovery.
  void SetAvailable(int i, bool available);

  // Removes and returns every queued (not yet started) request on instance
  // `i`, for re-dispatch after a failure.
  std::vector<Request*> DrainQueue(int i);

  // Re-queues a partially prefilled request on instance `i` behind the
  // current front group (chunked prefill: each chunk boundary yields the
  // instance to at most one other group, bounding their wait without
  // starving the long prompt).
  void PushContinuation(int i, Request* request);

 private:
  // Durations summed as integer ticks of 2^-64 s. Integer sums are exact, so
  // taking an estimate back out leaves no rounding residue, and a total
  // converts to the correctly rounded sum of the same doubles.
  using Ticks = __int128;

  struct Group {
    ModelId model = kInvalidModel;
    std::deque<Request*> pending;
    // Accumulated size: never decremented (see §4.2's FCFS note).
    int accumulated = 0;
  };

  struct InstanceQueue {
    std::deque<Group> groups;
    bool available = true;
    Ticks exec_sum = 0;    // exec estimates of the pending requests
    Ticks switch_sum = 0;  // switch estimates between consecutive groups
    // By model: queued groups that still accept joins. Lets an arrival skip
    // instances with nothing to join instead of scanning their groups.
    std::vector<int> open_groups;
  };

  Ticks ExecTicks(const Request& request) const;
  Ticks SwitchTicks(ModelId from, ModelId to) const;
  // Retires exhausted front groups, keeping switch_sum and open_groups in
  // step.
  void PopExhausted(InstanceQueue& queue) const;

  int max_group_size_;
  Estimators est_;
  std::vector<InstanceQueue> queues_;
};

}  // namespace aegaeon

#endif  // AEGAEON_CORE_PREFILL_SCHEDULER_H_
