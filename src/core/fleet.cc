#include "core/fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>

namespace aegaeon {

namespace {

int ClampShards(int shards, int cells) { return std::max(1, std::min(shards, cells)); }

// Lookahead slots of router decisions batched into one barrier. It bounds
// the dispatcher's load-snapshot staleness at ~4 * dispatch_latency, so it
// is part of the simulated protocol (results depend on it; shard and
// thread counts never change them).
constexpr int kRouteQuantum = 4;

}  // namespace

ShardedFleet::ShardedFleet(FleetConfig config, const ModelRegistry& registry,
                           const GpuSpec& gpu_spec)
    : config_(config),
      registry_(registry),
      sharded_(ClampShards(config.shards, std::max(config.cells, 1)), config.threads) {
  const int cells = std::max(config_.cells, 1);
  // The dispatch channel only exists when there is more than one cell to
  // route between; a single cell gets one unbounded (exact) epoch.
  if (cells > 1) {
    if (!(config_.dispatch_latency > 0.0)) {
      std::fprintf(stderr,
                   "ShardedFleet: dispatch_latency %g must be > 0 with %d cells "
                   "(it is the conservative lookahead)\n",
                   config_.dispatch_latency, cells);
      std::abort();
    }
    lookahead_ = config_.dispatch_latency;
  }

  cells_.reserve(static_cast<size_t>(cells));
  simsan_.reserve(static_cast<size_t>(cells));
  routed_.assign(static_cast<size_t>(cells), 0);
  pending_routed_.assign(static_cast<size_t>(cells), 0);
  delivery_batches_.resize(static_cast<size_t>(cells));
  delivery_time_batches_.resize(static_cast<size_t>(cells));
  touched_cells_.reserve(static_cast<size_t>(cells));
  for (int i = 0; i < cells; ++i) {
    simsan_.push_back(std::make_unique<simsan::SimSan>());
    // Construction registers allocators/streams with the checker, so it
    // must already run under the cell's scope.
    simsan::ScopedInstance scope(*simsan_[static_cast<size_t>(i)]);
    cells_.push_back(std::make_unique<AegaeonCluster>(config_.cell, registry, gpu_spec));
  }

  dispatcher_ = std::make_unique<LeastOutstandingDispatcher>();
  // The control plane sees cells only through these hooks; everything it
  // calls runs in the serial barrier stage.
  ControlPlane::Hooks hooks;
  hooks.route = [this](const ArrivalEvent& event) {
    const int target = dispatcher_->Route(
        event, [this](int c) { return CellLoad(c); }, this->cells());
    ++pending_routed_[static_cast<size_t>(target)];
    return target;
  };
  hooks.deliver = [this](const ArrivalEvent& event, int target, TimePoint deliver_at) {
    // Commits arrive in nondecreasing deliver_at order, so appending keeps
    // every cell's batch in the order per-arrival delivery would inject.
    assert(deliver_at >= last_delivery_ && "control plane delivered out of order");
    last_delivery_ = deliver_at;
    const size_t cell = static_cast<size_t>(target);
    if (delivery_batches_[cell].empty()) {
      touched_cells_.push_back(target);
    }
    delivery_batches_[cell].push_back(event);
    delivery_time_batches_[cell].push_back(deliver_at);
  };
  hooks.unroute = [this](int target) { --pending_routed_[static_cast<size_t>(target)]; };
  ctrl_ = std::make_unique<ControlPlane>(config_.ctrl, config_.dispatch_latency,
                                         std::move(hooks));
}

void ShardedFleet::SetDispatcher(std::unique_ptr<Dispatcher> dispatcher) {
  assert(dispatcher != nullptr);
  dispatcher_ = std::move(dispatcher);
}

void ShardedFleet::ScheduleCellFailure(int cell, bool prefill_partition, int index,
                                       TimePoint when, Duration downtime) {
  if (cell < 0 || cell >= cells()) {
    std::fprintf(stderr,
                 "ShardedFleet::ScheduleCellFailure: cell %d outside the fleet "
                 "(%d cells)\n",
                 cell, cells());
    std::abort();
  }
  // Instance index/time validation happens at the cell (fails fast too).
  cells_[static_cast<size_t>(cell)]->ScheduleFailure(prefill_partition, index, when, downtime);
}

void ShardedFleet::ScheduleDispatcherCrash(TimePoint when, Duration downtime) {
  ctrl_->ScheduleLeaderCrash(when, downtime);
}

ShardedFleet::~ShardedFleet() {
  // Destructors fire queue/GPU teardown hooks; route them to their cell's
  // checker like every other access.
  for (size_t i = 0; i < cells_.size(); ++i) {
    simsan::ScopedInstance scope(*simsan_[i]);
    cells_[i].reset();
  }
}

void ShardedFleet::ShardRange(int shard, int* begin, int* end) const {
  const int n = cells();
  const int k = sharded_.shards();
  const int base = n / k;
  const int extra = n % k;
  *begin = shard * base + std::min(shard, extra);
  *end = *begin + base + (shard < extra ? 1 : 0);
}

uint64_t ShardedFleet::CellLoad(int cell) const {
  // Outstanding counts served, injected, and routed-but-undelivered
  // requests: pending_routed_ reflects routing already performed at this
  // barrier (delivery is batched at the end of the window) plus anything
  // the control plane holds in flight, so a burst spreads across cells
  // instead of piling onto one snapshot winner — the same arithmetic
  // per-arrival delivery would produce via injected_requests().
  const AegaeonCluster& c = *cells_[static_cast<size_t>(cell)];
  return c.injected_requests() - c.settled_requests() +
         pending_routed_[static_cast<size_t>(cell)];
}

ShardedSim::EpochPlan ShardedFleet::PlanEpoch() {
  const std::vector<ArrivalEvent>& trace = *trace_;
  ShardedSim::EpochPlan plan;  // horizon = kTimeNever: final drain epoch
  if (next_arrival_ >= trace.size() && ctrl_->Drained()) {
    return plan;  // nothing left to route or re-dispatch
  }
  if (lookahead_ >= kTimeNever) {
    // No cross-cell channel (single cell): route everything up front —
    // running the control plane (and any dispatcher crash it has
    // scheduled) to completion — and run one exact, unbounded epoch.
    while (next_arrival_ < trace.size()) {
      ctrl_->Offer(trace[next_arrival_++]);
    }
    ctrl_->Drain();
    DeliverBatches();
    return plan;
  }
  // Next observable time: the earliest unrouted arrival or pending
  // control-plane effect (an in-flight delivery, or — while leaderless —
  // the next protocol event that can elect a leader and replay). Cells
  // emit no cross-cell traffic, so cell-local events never bound the
  // window.
  TimePoint next_observable =
      next_arrival_ < trace.size() ? trace[next_arrival_].time : kTimeNever;
  next_observable = std::min(next_observable, ctrl_->NextPendingTime());
  // Snap the window to the lookahead grid slot holding the next observable
  // time, then extend it to kRouteQuantum slots. Grid times are a pure
  // function of (trace, lookahead, fault plan), so every shard count sees
  // identical barriers. Slots between the previous barrier and the window
  // start are dead — no arrival, no pending cross-cell event — and are
  // skipped without a barrier; the batched slots past the first also save
  // a barrier each, so both are counted as skipped.
  const TimePoint base = std::floor(next_observable / lookahead_) * lookahead_;
  const TimePoint horizon = base + static_cast<double>(kRouteQuantum) * lookahead_;
  plan.slots_skipped =
      static_cast<uint64_t>(std::llround((horizon - barrier_) / lookahead_)) - 1;
  while (next_arrival_ < trace.size() && trace[next_arrival_].time < horizon) {
    // Routing goes through the control plane: with a live leader and no
    // imminent dispatcher crash the arrival commits immediately at
    // event.time + dispatch_latency (the exact pre-replication delivery
    // time — it may land inside this window, still causally safe because
    // delivery happens here at the barrier, before any cell advances).
    // Otherwise it enters the re-dispatch pipeline.
    ctrl_->Offer(trace[next_arrival_++]);
  }
  // Fire every protocol event inside the window: heartbeats, scheduled
  // dispatcher crashes (which un-route the in-flight log back into the
  // queue), elections, and the successor's replays.
  ctrl_->AdvanceTo(horizon);
  DeliverBatches();
  barrier_ = horizon;
  plan.horizon = horizon;
  return plan;
}

void ShardedFleet::DeliverBatches() {
  // Each event is injected at its committed delivery time: normal routes
  // land at arrival + dispatch_latency, failover replays at the successor's
  // re-dispatch time.
  for (const int target : touched_cells_) {
    std::vector<ArrivalEvent>& batch = delivery_batches_[static_cast<size_t>(target)];
    std::vector<TimePoint>& times = delivery_time_batches_[static_cast<size_t>(target)];
    AegaeonCluster& cell = *cells_[static_cast<size_t>(target)];
    simsan::ScopedInstance scope(*simsan_[static_cast<size_t>(target)]);
    cell.InjectArrivals(batch.data(), times.data(), batch.size());
    routed_[static_cast<size_t>(target)] += batch.size();
    pending_routed_[static_cast<size_t>(target)] -= batch.size();
    batch.clear();
    times.clear();
  }
  touched_cells_.clear();
}

bool ShardedFleet::CellHasWork(int cell, TimePoint horizon) const {
  const AegaeonCluster& c = *cells_[static_cast<size_t>(cell)];
  return horizon >= kTimeNever ? c.pending() : c.NextEventTime() <= horizon;
}

bool ShardedFleet::ShardHasWork(int shard, TimePoint horizon) const {
  int begin = 0, end = 0;
  ShardRange(shard, &begin, &end);
  for (int i = begin; i < end; ++i) {
    if (CellHasWork(i, horizon)) {
      return true;
    }
  }
  return false;
}

RunMetrics ShardedFleet::Run(const std::vector<ArrivalEvent>& trace) {
  assert(std::is_sorted(trace.begin(), trace.end(),
                        [](const ArrivalEvent& a, const ArrivalEvent& b) {
                          return a.time < b.time;
                        }) &&
         "fleet dispatch consumes the trace in time order");
  trace_ = &trace;
  next_arrival_ = 0;
  barrier_ = 0.0;
  last_delivery_ = 0.0;
  {
    MutexLock lock(overrun_mu_);
    sync_overruns_ = 0;
  }
  dispatcher_->BeginRun(cells());
  ctrl_->Begin();

  sharded_.Phase([this](int shard) {
    int begin = 0, end = 0;
    ShardRange(shard, &begin, &end);
    for (int i = begin; i < end; ++i) {
      simsan::ScopedInstance scope(*simsan_[static_cast<size_t>(i)]);
      cells_[static_cast<size_t>(i)]->BeginRun();
    }
  });

  sharded_.Run(
      [this] { return PlanEpoch(); },
      [this](int shard, TimePoint horizon) { return ShardHasWork(shard, horizon); },
      [this](int shard, TimePoint horizon) {
        int begin = 0, end = 0;
        ShardRange(shard, &begin, &end);
        uint64_t processed = 0;
        for (int i = begin; i < end; ++i) {
          // Per-cell idle skip: the predicate depends only on this cell's
          // own queue and the global horizon sequence, so the outcome —
          // including the skipped cell's unpinned clock — is identical for
          // every shard count.
          if (!CellHasWork(i, horizon)) {
            continue;
          }
          AegaeonCluster& cell = *cells_[static_cast<size_t>(i)];
          simsan::SimSan& checker = *simsan_[static_cast<size_t>(i)];
          simsan::ScopedInstance scope(checker);
          processed += horizon >= kTimeNever ? cell.AdvanceAll() : cell.AdvanceUntil(horizon);
          // Conservative-sync audit: the cell's shadow clock must not have
          // run past the horizon no other shard has reached yet.
          if (horizon < kTimeNever && checker.state().now() > horizon) {
            MutexLock lock(overrun_mu_);
            ++sync_overruns_;
          }
        }
        return processed;
      });

  cell_metrics_.assign(cells_.size(), RunMetrics{});
  sharded_.Phase([this](int shard) {
    int begin = 0, end = 0;
    ShardRange(shard, &begin, &end);
    for (int i = begin; i < end; ++i) {
      simsan::ScopedInstance scope(*simsan_[static_cast<size_t>(i)]);
      cell_metrics_[static_cast<size_t>(i)] = cells_[static_cast<size_t>(i)]->FinishRun();
    }
  });
  trace_ = nullptr;

  RunMetrics fleet;
  for (const RunMetrics& cell : cell_metrics_) {
    fleet.MergeFrom(cell);
  }
  fleet.shard_sim = sharded_.shard_perf();
  fleet.sync_epochs = sharded_.epochs();
  fleet.sync_epochs_skipped = sharded_.epochs_skipped();
  fleet.ctrl = ctrl_->stats();
  return fleet;
}

std::vector<ModelReport> ShardedFleet::PerModelReport() const {
  std::deque<Request> pooled;
  for (const std::unique_ptr<AegaeonCluster>& cell : cells_) {
    pooled.insert(pooled.end(), cell->requests().begin(), cell->requests().end());
  }
  return BuildPerModelReport(pooled, registry_);
}

FleetAudit ShardedFleet::audit() const {
  FleetAudit audit;
  {
    MutexLock lock(overrun_mu_);
    audit.sync_overruns = sync_overruns_;
  }
  for (const std::unique_ptr<simsan::SimSan>& checker : simsan_) {
    const simsan::SimSanReport report = checker->report();
    audit.checks += report.checks;
    audit.violations += report.violations.size();
  }
  return audit;
}

}  // namespace aegaeon
