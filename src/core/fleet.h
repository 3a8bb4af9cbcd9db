// ShardedFleet: fleet-scale serving simulation over a pool of Aegaeon
// cells, advanced in parallel under a conservative time-sync protocol.
//
// Decomposition. A fleet of `cells` independent serving cells, each a full
// AegaeonCluster (own Simulator, EventQueue, schedulers, KV machinery) of
// `cell.prefill_instances + cell.decode_instances` instances. A serial
// fleet dispatcher routes every arrival to a cell chosen by a pluggable
// Dispatcher policy (ctrl/dispatcher.h; default: least outstanding work);
// routed requests reach their cell after `dispatch_latency` (the fleet
// router / network hop). Cells never interact otherwise — KV migration and
// autoscaling stay cell-local, so the routing hop is the only channel.
//
// Control plane. Every arrival flows through a replicated ControlPlane
// (ctrl/control_plane.h): with `ctrl.replicas` == 1 and no scheduled
// dispatcher crash it degenerates to the bare dispatcher (bit-identical to
// the unreplicated fleet); with replication enabled, heartbeat-driven
// leader election and the bounded re-dispatch log make the dispatcher
// survive scheduled crashes (ScheduleDispatcherCrash / a FaultPlan) with
// every in-flight arrival re-dispatched exactly once. The control plane
// runs entirely inside the serial barrier stage, and its pending effects
// bound the epoch planner (NextPendingTime), so runs stay bit-identical
// for every shard and worker count even through a failover.
//
// Parallelism. The cells are grouped into `shards` contiguous groups; a
// shard is the unit of parallel execution, nothing more. Execution proceeds
// in epochs: a serial barrier stage dispatches the next window of arrivals
// into per-cell delivery batches, then every shard with runnable
// work advances its cells to the epoch horizon on a gang of persistent
// workers. The epoch window is a whole number of conservative-lookahead
// slots (lookahead = `dispatch_latency`): the barrier snaps past slots in
// which nothing observable happens and batches up to four slots of router
// decisions per barrier. Everything a cell does within an epoch is
// invisible to other cells until after the barrier (cells originate no
// cross-cell traffic), so the parallel advance cannot reorder observable
// events.
//
// Determinism. Epoch boundaries, dispatch decisions, delivery order, and
// the per-cell idle-skip probe are computed serially from trace + cell
// state alone; shards own disjoint state during the advance. RunMetrics
// are therefore bit-identical for every shard count, including shards == 1,
// and every worker count. The four-slot routing quantum widens the
// dispatcher's snapshot staleness bound to ~4 * lookahead, so it is part
// of the simulated protocol; changing shards or threads never changes
// results. With cells == 1 the lookahead is infinite (a single
// cell has no cross-cell channel): the run collapses to one epoch and,
// with dispatch_latency == 0, reproduces a plain AegaeonCluster::Run
// exactly. See DESIGN.md §8.
//
// SimSan. Each cell gets its own checker instance, installed (ScopedInstance)
// around construction, every advance, teardown, and destruction, so shadow
// state follows the cell across pool threads. At each barrier the fleet
// audits that no cell's shadow watermark overran the epoch horizon
// (`sync_overruns`), and pools checks/violations into the final FleetAudit.

#ifndef AEGAEON_CORE_FLEET_H_
#define AEGAEON_CORE_FLEET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/metrics.h"
#include "core/cluster.h"
#include "core/config.h"
#include "core/request.h"
#include "core/serving_system.h"
#include "core/thread_annotations.h"
#include "ctrl/control_plane.h"
#include "ctrl/dispatcher.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "sanitizer/simsan.h"
#include "sim/sharded_sim.h"
#include "sim/time.h"

namespace aegaeon {

struct FleetConfig {
  // Number of serving cells. Part of the simulated configuration: it
  // changes dispatch granularity and therefore results.
  int cells = 1;
  // Parallel execution width. NOT part of the simulated configuration:
  // results are bit-identical for any value. Clamped to [1, cells].
  int shards = 1;
  // Worker threads for the shard gang; <= 0 selects min(shards, the
  // ParallelSweep default: AEGAEON_SWEEP_THREADS, else hardware
  // concurrency).
  int threads = 0;
  // Latency of the fleet router -> cell hop; the conservative lookahead.
  // Must be > 0 when cells > 1 (the constructor aborts otherwise).
  Duration dispatch_latency = 0.05;
  // Dispatcher replication (ctrl/control_plane.h). The default (1 replica,
  // no scheduled crash) reproduces the unreplicated fleet bit for bit.
  ControlPlaneConfig ctrl;
  // Every cell's configuration (instances per cell, memory sizing, ...).
  AegaeonConfig cell;
};

// Pooled sanitizer + protocol health of a fleet run.
struct FleetAudit {
  uint64_t checks = 0;         // SimSan checks across all cells (0 when off)
  uint64_t violations = 0;     // SimSan violations across all cells
  uint64_t sync_overruns = 0;  // cell shadow watermark crossed an epoch horizon
};

class ShardedFleet final : public ServingSystem {
 public:
  // Aborts when cells > 1 and dispatch_latency <= 0 (the conservative
  // protocol would make no progress).
  ShardedFleet(FleetConfig config, const ModelRegistry& registry, const GpuSpec& gpu_spec);
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  // Serves the whole trace (time-sorted arrivals) to completion. Returns
  // fleet-pooled metrics: per-request aggregates merged across cells,
  // per-shard host cost in shard_sim, and the epoch count in sync_epochs.
  RunMetrics Run(const std::vector<ArrivalEvent>& trace) override;
  // One report over every cell's requests, pooled in cell-index order.
  std::vector<ModelReport> PerModelReport() const override;

  int cells() const { return static_cast<int>(cells_.size()); }
  int shards() const { return sharded_.shards(); }
  // Epoch length; kTimeNever when cells == 1 (single epoch, exact).
  Duration lookahead() const { return lookahead_; }
  // Conservative-sync epochs executed by the last Run.
  uint64_t epochs() const { return sharded_.epochs(); }
  // Lookahead slots jumped without a barrier by the last Run.
  uint64_t epochs_skipped() const { return sharded_.epochs_skipped(); }

  AegaeonCluster& cell(int index) { return *cells_[static_cast<size_t>(index)]; }
  const AegaeonCluster& cell(int index) const { return *cells_[static_cast<size_t>(index)]; }
  // Per-cell metrics of the last Run, indexed by cell.
  const std::vector<RunMetrics>& cell_metrics() const { return cell_metrics_; }
  // Arrivals routed to each cell by the dispatcher, indexed by cell.
  const std::vector<uint64_t>& routed() const { return routed_; }

  // Replaces the routing policy (default: LeastOutstandingDispatcher).
  // Call before Run(); the policy must be deterministic (see Dispatcher).
  void SetDispatcher(std::unique_ptr<Dispatcher> dispatcher);
  // Schedules one instance of one cell to fail at `when` for `downtime`
  // (the fleet-level form of AegaeonCluster::ScheduleFailure). Aborts on
  // an out-of-range cell or instance. Call before Run().
  void ScheduleCellFailure(int cell, bool prefill_partition, int index, TimePoint when,
                           Duration downtime);
  // Schedules the dispatcher replica leading at `when` to crash and
  // recover `downtime` later (ctrl replication handles the failover).
  void ScheduleDispatcherCrash(TimePoint when, Duration downtime);

  FleetAudit audit() const;

 private:
  // Contiguous [begin, end) cell range owned by `shard`.
  void ShardRange(int shard, int* begin, int* end) const;
  // Serial barrier stage: offers every arrival in the next epoch window to
  // the control plane, advances the protocol to the window's horizon,
  // delivers the batches it committed, and returns the horizon (kTimeNever
  // to request the final drain epoch) plus the slots it skipped.
  ShardedSim::EpochPlan PlanEpoch();
  // Outstanding load of one cell as the dispatcher sees it: injected minus
  // settled plus routed-but-undelivered (pending_routed_).
  uint64_t CellLoad(int cell) const;
  // Delivers the barrier's committed arrivals into the target cells, one
  // batched InjectArrivals per touched cell, each event at its own
  // committed delivery time.
  void DeliverBatches();
  // True when `cell` can process an event at or before `horizon` (any
  // pending event for the final drain epoch). Reads only that cell.
  bool CellHasWork(int cell, TimePoint horizon) const;
  // True when any cell of `shard` can process an event at or before
  // `horizon` (serial barrier stage only).
  bool ShardHasWork(int shard, TimePoint horizon) const;

  FleetConfig config_;
  const ModelRegistry& registry_;
  Duration lookahead_ = kTimeNever;
  ShardedSim sharded_;
  std::vector<std::unique_ptr<AegaeonCluster>> cells_;
  // One checker per cell; shadow state follows the cell, not the thread.
  std::vector<std::unique_ptr<simsan::SimSan>> simsan_;
  // Routing policy + replicated control plane (both barrier-stage only).
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<ControlPlane> ctrl_;
  std::vector<uint64_t> routed_;
  std::vector<RunMetrics> cell_metrics_;

  // Run-scoped dispatch state (serial barrier stage only).
  const std::vector<ArrivalEvent>* trace_ = nullptr;
  size_t next_arrival_ = 0;
  // End of the previous epoch window (lookahead-grid aligned); the skip
  // counter measures jumps from here.
  TimePoint barrier_ = 0.0;
  // Requests routed at the current barrier, not yet injected; folded into
  // RouteArrival's load so batched delivery sees the same arithmetic as
  // per-arrival delivery.
  std::vector<uint64_t> pending_routed_;
  // Barrier-stage scratch, capacity-retaining so the steady-state epoch
  // loop performs no heap allocation: the deliver hook appends to one
  // ArrivalEvent batch (plus its parallel delivery-time batch) per cell
  // and records the cells touched this epoch in first-delivery order.
  std::vector<std::vector<ArrivalEvent>> delivery_batches_;
  std::vector<std::vector<TimePoint>> delivery_time_batches_;
  std::vector<int> touched_cells_;
  // Latest committed delivery time; the deliver hook asserts it never
  // decreases.
  TimePoint last_delivery_ = 0.0;

  // Incremented from parallel advances (cold path: overruns mean the
  // conservative-sync protocol itself is broken); read by audit(). The
  // guard is machine-checked via -Wthread-safety.
  mutable Mutex overrun_mu_;
  uint64_t sync_overruns_ GUARDED_BY(overrun_mu_) = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_CORE_FLEET_H_
