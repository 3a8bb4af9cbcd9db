// The Aegaeon serving cluster (Figure 5): a pool of GPUs split into prefill
// and decoding instances, a proxy layer dispatching multi-model requests,
// token-level schedulers (§4), and preemptive auto-scaling (§5), all driven
// by the discrete-event simulator.
//
// Lifecycle of a request (§7.3): prefill waiting (job queue) -> prefill
// execution -> KV swap-out to the unified CPU cache -> decode dispatch ->
// cycles of decoding waiting (work list) and decoding execution -> done.

#ifndef AEGAEON_CORE_CLUSTER_H_
#define AEGAEON_CORE_CLUSTER_H_

#include <deque>
#include <memory>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/timeline.h"
#include "core/config.h"
#include "core/decode_scheduler.h"
#include "core/prefill_scheduler.h"
#include "core/request.h"
#include "engine/autoscaler.h"
#include "hw/node.h"
#include "kv/transfer_engine.h"
#include "kv/unified_cache.h"
#include "mem/model_cache.h"
#include "model/latency_model.h"
#include "model/registry.h"
#include "serve/proxy.h"
#include "sim/simulator.h"

namespace aegaeon {

class AegaeonCluster {
 public:
  AegaeonCluster(AegaeonConfig config, const ModelRegistry& registry, const GpuSpec& gpu_spec);

  // Serves the whole trace to completion and returns run metrics.
  // Equivalent to BeginRun(); InjectArrivals(trace.data(), trace.size(),
  // 0.0); AdvanceAll(); FinishRun().
  RunMetrics Run(const std::vector<ArrivalEvent>& trace);

  // --- Stepwise execution (sharded fleet; see core/fleet.h) --------------
  // The fleet drives each cell cluster incrementally: arrivals are injected
  // epoch by epoch as the dispatcher routes them, and the event loop is
  // advanced to each epoch's conservative horizon rather than to empty.
  //
  // Prepares the cluster for event processing: warms model caches, arms
  // failure plans, and constructs the proxy when enabled. Call once.
  void BeginRun();
  // Creates a Request per event and schedules its injection at
  // `event.time + delay` (the fleet's dispatch latency; 0 for direct runs).
  // Requests live in a deque, so pointers captured by scheduled events stay
  // valid across later injections.
  void InjectArrivals(const ArrivalEvent* events, size_t count, Duration delay);
  // Per-event injection-time form: event i reaches the cluster at
  // `deliver_at[i]` (>= the cluster clock). The replicated control plane
  // uses this for failover replays, whose delivery time is the replay
  // instant plus the dispatch hop — not the original arrival plus the hop.
  // `Request::arrival` stays the client-observed event time either way, so
  // failover delay surfaces as prefill wait / TTFT.
  void InjectArrivals(const ArrivalEvent* events, const TimePoint* deliver_at, size_t count);
  // Processes every event with timestamp <= horizon, then pins the clock to
  // the horizon. Returns the number of events processed.
  uint64_t AdvanceUntil(TimePoint horizon);
  // Processes events until the queue is empty. Returns events processed.
  uint64_t AdvanceAll();
  // Runs the teardown audits and folds metrics. Call once, after the final
  // advance.
  RunMetrics FinishRun();

  // Requests that reached RequestPhase::kDone.
  uint64_t completed_requests() const { return completed_count_; }
  // Requests whose lifecycle has ended: completed plus proxy-dropped. The
  // fleet's load balancer uses injected - settled as a cell's outstanding
  // load.
  uint64_t settled_requests() const;
  uint64_t injected_requests() const { return requests_.size(); }
  TimePoint Now() const { return sim_.Now(); }
  bool pending() const { return sim_.pending(); }
  // Earliest pending event (kTimeNever when idle); the fleet's barrier
  // stage uses it to skip cells with nothing to do inside an epoch.
  TimePoint NextEventTime() const { return sim_.NextEventTime(); }
  const SimPerfCounters& sim_perf() const { return sim_.perf(); }

  // --- Fault injection (§3.3: the proxy layer provides fault tolerance) --
  // Schedules instance `index` (prefill or decode partition) to fail at
  // `when` and come back `downtime` seconds later (engine re-bootstrap).
  // On a prefill failure the in-flight and queued requests re-dispatch to
  // healthy instances. On a decode failure, device-resident KV is lost:
  // affected requests re-enter the prefill phase to *recompute* their KV
  // (already-delivered tokens stay delivered), while host-resident (parked)
  // requests simply re-dispatch. Call before Run(). The plan is validated
  // here, at schedule time: an out-of-range instance index (or a
  // non-positive downtime / negative fire time) aborts immediately instead
  // of silently matching nothing at dispatch time.
  void ScheduleFailure(bool prefill_partition, int index, TimePoint when, Duration downtime);

  // Degrades every PCIe transfer link of this cell to `bandwidth_factor`
  // (0 < factor <= 1) of its healthy bandwidth during [when, when +
  // duration): swap-in/swap-out and model loads slow down, decode rounds
  // stall on KV sync. Windows do not stack; the last writer wins while
  // they overlap and health is restored to exactly 1.0 afterwards. Call
  // before Run().
  void ScheduleLinkDegradation(TimePoint when, Duration duration, double bandwidth_factor);

  // Overrides this cell's software-aging drift (config.aging). The fleet's
  // fault engine uses it for per-cell drift. Call before Run().
  void SetAgingDrift(const AgingDriftConfig& aging) { aging_ = aging; }

  // --- Introspection (tests and benches) --------------------------------
  const std::deque<Request>& requests() const { return requests_; }
  // Node 0's caches (the only node unless config.nodes > 1).
  const UnifiedKvCache& cpu_kv_cache() const { return *node_states_[0].cpu_kv; }
  const TransferEngine& transfer_engine() const { return xfer_; }
  const ModelCache& model_cache() const { return *node_states_[0].model_cache; }
  int node_count() const { return static_cast<int>(node_states_.size()); }
  // Cross-node KV migrations performed (locality misses).
  uint64_t kv_migrations() const { return kv_migrations_; }
  // The serving proxy of the current/last Run (nullptr when disabled).
  const ServingProxy* proxy() const { return proxy_.get(); }
  // Switch latencies across all instances (Figure 15 left).
  std::vector<double> SwitchLatencies() const;

  struct ScalingStats {
    uint64_t prefill_switches = 0;
    uint64_t decode_switches = 0;
    uint64_t prefetch_hits = 0;
    uint64_t prefetch_issued = 0;
    double prefill_switch_mean = 0.0;
    double decode_switch_mean = 0.0;
  };
  ScalingStats GetScalingStats() const;

  // Optional execution-timeline recording (Chrome trace export). The
  // recorder must outlive the cluster. Lanes: prefill instances first,
  // then decoding instances.
  void AttachTimeline(TimelineRecorder* recorder) { timeline_ = recorder; }
  // Fraction of compute-stream busy time over the makespan, per GPU.
  std::vector<double> GpuUtilization(Duration horizon) const;

 private:
  // Per-physical-node state (Figure 5): host DRAM, checkpoint cache,
  // unified CPU KV cache, and the inter-node fabric endpoint.
  struct NodeState {
    std::unique_ptr<Node> hw;
    std::unique_ptr<ModelCache> model_cache;
    std::unique_ptr<UnifiedKvCache> cpu_kv;
    std::unique_ptr<StreamSim> fabric;  // serialized inter-node sends
  };

  struct PrefillUnit {
    int index = 0;
    int node = 0;
    GpuDevice* gpu = nullptr;
    std::unique_ptr<UnifiedKvCache> kv_cache;
    std::unique_ptr<AutoScaler> scaler;
    bool busy = false;
    // Fault state: failed units accept no work; epoch invalidates events
    // scheduled before a crash.
    bool failed = false;
    uint64_t epoch = 0;
    Request* active = nullptr;
  };

  struct DecodeUnit {
    int index = 0;
    int node = 0;
    GpuDevice* gpu = nullptr;
    std::unique_ptr<UnifiedKvCache> kv_cache;
    std::unique_ptr<AutoScaler> scaler;
    std::vector<DecodeBatch> work_list;
    // Requests dispatched here whose KV is still host-side (swap-in failed
    // or pending); retried at round boundaries.
    std::vector<Request*> parked;
    std::vector<Duration> quotas;
    size_t turn = 0;
    bool round_active = false;
    bool round_did_work = false;
    TimePoint earliest_ready = kTimeNever;
    // Expected KV bytes of the unfinished requests assigned here; admission
    // control keeps this within the GPU KV capacity (Algorithm 2, line 2).
    double committed_kv_bytes = 0.0;
    // Last time a KV extension failed (capacity pressure). Parked requests
    // are not re-admitted for a cool-down after this, so resident requests
    // can use freed blocks to finish instead of ping-ponging with parked
    // ones.
    TimePoint last_pressure = -1e18;
    bool failed = false;
    uint64_t epoch = 0;
  };

  struct FailurePlan {
    bool prefill_partition = true;
    int index = 0;
    TimePoint when = 0.0;
    Duration downtime = 10.0;
  };

  struct LinkDegradationPlan {
    TimePoint when = 0.0;
    Duration duration = 0.0;
    double bandwidth_factor = 1.0;
  };

  // Arrival/prefill path.
  void OnArrival(Request* request);
  void TryStartPrefill(int unit_index);
  void FinishPrefill(int unit_index, Request* request);

  // Serving proxy (overload control). Constructed per Run when enabled.
  void MakeProxy();
  // Estimated delay before a request dispatched now would start prefill:
  // the least-loaded healthy prefill queue, plus a decode back-pressure
  // term when prefilled work is already waiting for decode KV capacity.
  Duration BacklogEstimate() const;
  // Re-admission of a failure-displaced request into the prefill phase.
  void RequeuePrefill(Request* request);

  // Decode path.
  void DispatchDecode(Request* request);
  // Capacity-aware assignment; false when every unit's KV budget is full
  // (the request then waits in the overflow queue).
  bool TryAssignDecode(Request* request);
  void DrainDecodeOverflow();
  void OnDecodeComplete(DecodeUnit& unit, Request* request);
  // Bills KV growth beyond the admission estimate against the unit budget.
  void BillKvGrowth(DecodeUnit& unit, Request* request);
  double ExpectedKvBytes(ModelId model) const;
  double KvBytesPerToken(ModelId model) const;
  int MaxBatchForModel(ModelId model) const;
  bool TrySwapIn(DecodeUnit& unit, Request* request);
  void StartRound(DecodeUnit& unit);
  void RunTurn(DecodeUnit& unit);
  void FinishTurn(DecodeUnit& unit, const std::vector<Request*>& active, TimePoint exec_start,
                  Duration step_time, int64_t steps);

  // KV shape-class id of `model` in `cache` (pre-registered).
  ShapeClassId ShapeFor(const UnifiedKvCache& cache, ModelId model) const;

  AegaeonConfig config_;
  const ModelRegistry& registry_;
  LatencyModel latency_;
  Simulator sim_;
  std::vector<NodeState> node_states_;
  TransferEngine xfer_;
  uint64_t kv_migrations_ = 0;

  std::vector<PrefillUnit> prefill_units_;
  std::vector<DecodeUnit> decode_units_;
  std::unique_ptr<PrefillScheduler> prefill_sched_;
  std::unique_ptr<ServingProxy> proxy_;

  // Shape-class ids per model: [cache-specific]; index 0 = CPU cache,
  // 1 + unit-index for GPU caches (all caches register every model's shape
  // up front, and identical geometries share a class).
  std::vector<ShapeClassId> cpu_shape_of_model_;
  std::vector<ShapeClassId> gpu_shape_of_model_;  // identical across GPU caches

  // Fault injection.
  void FailPrefillUnit(int index, Duration downtime);
  void FailDecodeUnit(int index, Duration downtime);
  void RecoverPrefillUnit(int index);
  void RecoverDecodeUnit(int index);
  // Sets every GPU link's health fraction (link-degradation windows).
  void SetLinkHealth(double fraction);
  // Software-aging multipliers at `now`; exactly 1.0 (a bitwise no-op on
  // every computation they scale) while the corresponding rate is zero or
  // the drift has not started.
  double AgingLatencyFactor(TimePoint now) const;
  double AgingKvFactor(TimePoint now) const;
  std::unique_ptr<UnifiedKvCache> MakeGpuKvCache(int gpu_id);
  std::unique_ptr<AutoScaler> MakeScaler(GpuDevice& gpu, int node);

  // Multi-node helpers.
  UnifiedKvCache& CpuKvOf(int node) { return *node_states_[node].cpu_kv; }
  // Moves host-resident KV to `to_node`'s CPU cache over the fabric.
  bool MigrateKv(KvHandle& handle, int to_node, TimePoint now);

  // Prefilled requests waiting for decode KV capacity.
  std::deque<Request*> decode_overflow_;

  std::vector<FailurePlan> failure_plans_;
  std::vector<LinkDegradationPlan> link_plans_;
  AgingDriftConfig aging_;
  // Deque: InjectArrivals appends incrementally while scheduled events hold
  // pointers to earlier elements, so reallocation is not an option.
  std::deque<Request> requests_;
  // Reused by InjectArrivals (capacity retained), so per-epoch injection
  // under the sharded fleet does no steady-state heap allocation.
  std::vector<EventQueue::Pending> inject_scratch_;
  std::vector<TimePoint> inject_times_scratch_;
  uint64_t completed_count_ = 0;
  TimelineRecorder* timeline_ = nullptr;
};

}  // namespace aegaeon

#endif  // AEGAEON_CORE_CLUSTER_H_
