#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "analysis/stats.h"
#include "core/cluster.h"
#include "ctrl/dispatcher.h"
#include "ctrl/fault_plan.h"
#include "hw/gpu_spec.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace perfbench {

using aegaeon::AegaeonCluster;
using aegaeon::ArrivalEvent;
using aegaeon::ModelRegistry;
using aegaeon::Request;
using aegaeon::RunMetrics;

namespace {

// Cell shape of the paper's §7.2 testbed: 16 H800s, 6 prefill + 10 decode.
WorkloadSpec TestbedCell(const char* name) {
  WorkloadSpec spec;
  spec.name = name;
  spec.models = 40;
  spec.cell.prefill_instances = 6;
  spec.cell.decode_instances = 10;
  return spec;
}

WorkloadSpec CellSweep() {
  WorkloadSpec spec = TestbedCell("cell-sweep");
  spec.horizon = 3600.0;
  // The sweep stops below 0.55, where the cell is metastable: about a third
  // of seeds collapse there (backlog grows, attainment 0.09-0.84) and the
  // rest hold (>= 0.93), which would make this workload's metrics bimodal
  // across seeds.
  spec.rates = {0.15, 0.30, 0.45, 0.50};
  spec.primary = 2;  // 0.45
  spec.time_every_rate = true;  // the sweep itself is the timed work
  return spec;
}

WorkloadSpec CellSaturated() {
  WorkloadSpec spec = TestbedCell("cell-saturated");
  spec.horizon = 300.0;
  // 1.2 is far enough past the knee that every seed collapses at once (near
  // the knee, when and whether the cell collapses depends on the seed).
  // 0.45 is the rung below the knee that holds the SLO; it is not timed.
  // Eight replicas pool away most of the seed-to-seed spread of the
  // collapsed runs.
  spec.rates = {0.45, 1.2};
  spec.primary = 1;
  spec.replicas = 8;
  return spec;
}

WorkloadSpec Fleet1024() {
  WorkloadSpec spec;
  spec.name = "fleet-1024";
  spec.fleet = true;
  spec.models = 512;  // the full market deployed in every cell
  spec.cell.prefill_instances = 2;
  spec.cell.decode_instances = 2;
  spec.fleet_config.cells = 256;
  // One shard: at two, about half the loop is the gang's cross-thread
  // wake-ups, whose cost swung 2x within minutes on a shared 4-vCPU VM. The
  // tests check that two shards give bit-identical results.
  spec.fleet_config.shards = 1;
  spec.fleet_config.threads = 1;
  spec.horizon = 600.0;
  spec.rates = {0.2};
  spec.primary = 0;
  return spec;
}

WorkloadSpec OverloadFaults() {
  WorkloadSpec spec;
  spec.name = "overload-faults";
  spec.fleet = true;
  spec.models = 16;
  spec.cell.prefill_instances = 2;
  spec.cell.decode_instances = 3;
  spec.cell.proxy.enabled = true;
  spec.fleet_config.cells = 4;
  spec.fleet_config.shards = 1;
  spec.fleet_config.threads = 1;
  spec.fleet_config.ctrl.replicas = 3;
  spec.bursty = true;
  spec.burst_multiplier = 6.0;
  spec.mean_calm = 40.0;
  spec.mean_burst = 15.0;
  spec.horizon = 7200.0;
  // 0.8 is twice the knee base rate; 0.2 is the rung that holds the SLO
  // (not timed).
  spec.rates = {0.2, 0.8};
  spec.primary = 1;
  spec.replicas = 2;
  spec.faults = {
      "dispatcher@3000+8",
      "cell/1/decode:0@2000+60",
      "cell/2/link:0.25@4000+600",
      "cell/3/aging:0.00001,0.00001",
  };
  return spec;
}

uint64_t Fnv(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

// Scans one cell's requests: terminal states, digest, TPOT and backlog.
class RequestScan {
 public:
  RequestScan(aegaeon::Duration horizon, SystemResult* result)
      : half_(horizon / 2.0), end_(horizon), result_(result) {}

  void Add(const Request& r) {
    Outcomes& out = result_->outcomes;
    const bool done = r.phase == aegaeon::RequestPhase::kDone;
    const bool dropped = r.proxy_outcome != aegaeon::ProxyOutcome::kNone;
    if (done == dropped) {
      Violation("request " + std::to_string(r.id) + " ends in " + (done ? "two" : "no") +
                " terminal states");
    }
    if (done && !r.finished()) {
      Violation("request " + std::to_string(r.id) + " is done with tokens left");
    }
    if (!(r.tokens_met <= r.generated && r.generated <= r.output_tokens)) {
      Violation("request " + std::to_string(r.id) + ": met " + std::to_string(r.tokens_met) +
                ", generated " + std::to_string(r.generated) + ", output " +
                std::to_string(r.output_tokens));
    }
    tokens_met_ += r.tokens_met;
    tokens_generated_ += r.generated;
    tokens_total_ += r.output_tokens;
    switch (r.proxy_outcome) {
      case aegaeon::ProxyOutcome::kRejected: ++out.rejected; break;
      case aegaeon::ProxyOutcome::kShed: ++out.shed; break;
      case aegaeon::ProxyOutcome::kTimedOut: ++out.timed_out; break;
      case aegaeon::ProxyOutcome::kNone:
        if (done) {
          ++out.completed;
        }
        break;
    }
    if (done && !dropped && r.output_tokens > 1) {
      result_->tpot.push_back((r.completion - r.first_token_time) /
                              static_cast<double>(r.output_tokens - 1));
    }

    uint64_t& h = result_->digest;
    h = Fnv(h, r.id);
    h = Fnv(h, r.model);
    h = Fnv(h, static_cast<uint64_t>(r.proxy_outcome));
    h = Fnv(h, static_cast<uint64_t>(r.phase));
    h = Fnv(h, static_cast<uint64_t>(r.generated));
    h = Fnv(h, static_cast<uint64_t>(r.tokens_met));
    h = Fnv(h, Bits(r.arrival));
    h = Fnv(h, Bits(r.first_token_time));
    h = Fnv(h, Bits(r.completion));

    // A proxy-dropped request leaves the system at its arrival.
    const double leave = done && !dropped ? r.completion : r.arrival;
    result_->in_system_half += r.arrival <= half_ && leave > half_;
    result_->in_system_end += r.arrival <= end_ && leave > end_;
    result_->arrivals_second_half += r.arrival > half_ && r.arrival <= end_;
  }

  // The per-request token sums must be what RunMetrics folded.
  void Finish() {
    const RunMetrics& m = result_->metrics;
    if (tokens_met_ != m.tokens_met || tokens_generated_ != m.tokens_generated ||
        tokens_total_ != m.tokens_total) {
      Violation("per-request token sums disagree with RunMetrics");
    }
  }

  void Violation(std::string what) {
    if (result_->violations.size() < 8) {
      result_->violations.push_back(std::move(what));
    }
  }

 private:
  double half_;
  double end_;
  SystemResult* result_;
  int64_t tokens_met_ = 0;
  int64_t tokens_generated_ = 0;
  int64_t tokens_total_ = 0;
};

void AddCellCounters(const AegaeonCluster& cell, double makespan, LayerCounters* c) {
  const AegaeonCluster::ScalingStats scaling = cell.GetScalingStats();
  c->switches += scaling.prefill_switches + scaling.decode_switches;
  c->switch_seconds += scaling.prefill_switch_mean * scaling.prefill_switches +
                       scaling.decode_switch_mean * scaling.decode_switches;
  c->prefetch_hits += scaling.prefetch_hits;
  c->prefetch_issued += scaling.prefetch_issued;

  const aegaeon::ModelCache& cache = cell.model_cache();
  c->cache_hits += cache.hits();
  c->cache_misses += cache.misses();
  c->cache_evictions += cache.evictions();
  c->ssd_hits += cache.ssd_hits();

  const aegaeon::UnifiedKvCache& kv = cell.cpu_kv_cache();
  const auto kv_stats = kv.slabs().overall_stats();
  c->kv_peak_held_bytes += kv_stats.peak_held_bytes;
  c->kv_used_at_peak += kv_stats.used_at_peak;
  c->kv_peak_slabs += kv_stats.peak_held_bytes / kv.slabs().slab_bytes();
  c->move_list_peak = std::max<uint64_t>(c->move_list_peak, kv.move_list_peak());
  c->deferred_frees += kv.deferred_frees();

  const aegaeon::TransferEngine::Stats& xfer = cell.transfer_engine().stats();
  c->swap_outs += xfer.swap_outs;
  c->swap_ins += xfer.swap_ins;
  c->bytes_moved += xfer.bytes_out + xfer.bytes_in;

  for (double util : cell.GpuUtilization(makespan)) {
    ++c->gpus;
    c->gpu_busy_seconds += util * makespan;
    c->gpu_seconds += makespan;
  }
  if (const aegaeon::ServingProxy* proxy = cell.proxy()) {
    const aegaeon::ProxyStats& stats = proxy->stats();
    c->proxy_arrivals += stats.arrivals;
    c->proxy_dispatched += stats.dispatched;
    c->proxy_retries += stats.retries;
    c->proxy_degraded += stats.degraded;
  }
}

// Folds the run's metrics and checks the invariants every run must hold.
void Settle(size_t attempted, SystemResult* result) {
  const RunMetrics& m = result->metrics;
  const Outcomes& out = result->outcomes;
  LayerCounters& c = result->layers;
  c.dispatched = m.total_requests - m.rejected_requests - m.shed_requests - m.timed_out_requests;
  c.prefill_wait = m.breakdown.prefill_wait;
  c.decode_wait = m.breakdown.decode_wait;
  c.control_overhead = m.breakdown.control_overhead;
  c.data_overhead = m.breakdown.data_overhead;
  c.events = m.sim.events_processed;
  result->makespan_sum = m.horizon;

  auto violation = [result](std::string what) { result->violations.push_back(std::move(what)); };
  if (out.attempted != attempted || m.total_requests != attempted) {
    violation("attempted " + std::to_string(attempted) + " but the system holds " +
              std::to_string(m.total_requests) + " requests");
  }
  if (out.completed + out.failed() != attempted) {
    violation("completed + rejected + shed + timed out = " +
              std::to_string(out.completed + out.failed()) + " != attempted " +
              std::to_string(attempted));
  }
  if (out.completed != m.completed_requests || out.rejected != m.rejected_requests ||
      out.shed != m.shed_requests || out.timed_out != m.timed_out_requests) {
    violation("per-request outcomes disagree with RunMetrics");
  }
  if (!(m.tokens_met <= m.tokens_generated && m.tokens_generated <= m.tokens_total)) {
    violation("token accounting: met " + std::to_string(m.tokens_met) + ", generated " +
              std::to_string(m.tokens_generated) + ", total " + std::to_string(m.tokens_total));
  }
  if (!(m.horizon > 0.0) || !std::isfinite(m.horizon)) {
    violation("makespan is not positive and finite");
  }
}

class TimingDispatcher final : public aegaeon::Dispatcher {
 public:
  TimingDispatcher(SpanTrace* trace, uint32_t loop_span) : trace_(trace), loop_span_(loop_span) {}

  void BeginRun(int cells) override {
    begin_ = Clock::now();
    routes_ = 0;
    inner_.BeginRun(cells);
  }

  int Route(const ArrivalEvent& event, const aegaeon::CellLoadFn& load, int cells) override {
    if (trace_ == nullptr || !trace_->enabled()) {
      if (routes_++ == 0) {
        first_route_ = Clock::now();
      }
      return inner_.Route(event, load, cells);
    }
    const Clock::time_point start = Clock::now();
    if (routes_++ == 0) {
      first_route_ = start;
    }
    const int cell = inner_.Route(event, load, cells);
    const Clock::time_point end = Clock::now();
    route_seconds_ += Seconds(start, end);
    trace_->Add("ctrl.route", loop_span_, start, end);
    return cell;
  }

  Clock::time_point begin() const { return begin_; }
  Clock::time_point first_route() const { return first_route_; }
  uint64_t routes() const { return routes_; }
  double route_seconds() const { return route_seconds_; }

 private:
  aegaeon::LeastOutstandingDispatcher inner_;
  SpanTrace* trace_;
  uint32_t loop_span_;
  Clock::time_point begin_;
  Clock::time_point first_route_;
  uint64_t routes_ = 0;
  double route_seconds_ = 0.0;
};

SystemResult RunCell(const WorkloadSpec& spec, const ModelRegistry& registry,
                     const std::vector<ArrivalEvent>& trace, SpanTrace* spans, uint32_t parent) {
  SystemResult result;
  result.digest = kFnvBasis;
  const Clock::time_point t0 = Clock::now();
  AegaeonCluster cluster(spec.cell, registry, aegaeon::GpuSpec::H800());
  const Clock::time_point t1 = Clock::now();
  cluster.BeginRun();
  const Clock::time_point t2 = Clock::now();
  cluster.InjectArrivals(trace.data(), trace.size(), 0.0);
  const Clock::time_point t3 = Clock::now();
  cluster.AdvanceAll();
  const Clock::time_point t4 = Clock::now();
  result.metrics = cluster.FinishRun();
  const Clock::time_point t5 = Clock::now();

  result.host.ctor = Seconds(t0, t1);
  result.host.begin = Seconds(t1, t2);
  result.host.inject = Seconds(t2, t3);
  result.host.loop = Seconds(t3, t4);
  result.host.finish = Seconds(t4, t5);
  if (spans != nullptr && spans->enabled()) {
    const uint32_t system = spans->Add("bench.system", parent, t0, t5);
    spans->Add("core.ctor", system, t0, t1);
    spans->Add("core.begin_run", system, t1, t2);
    spans->Add("sim.inject", system, t2, t3);
    spans->Add("sim.loop", system, t3, t4);
    spans->Add("analysis.finish", system, t4, t5);
  }

  result.outcomes.attempted = cluster.requests().size();
  RequestScan scan(spec.horizon, &result);
  for (const Request& r : cluster.requests()) {
    scan.Add(r);
  }
  scan.Finish();
  AddCellCounters(cluster, result.metrics.horizon, &result.layers);
  Settle(trace.size(), &result);
  return result;
}

SystemResult RunFleet(const WorkloadSpec& spec, const ModelRegistry& registry,
                      const std::vector<ArrivalEvent>& trace, const RunOptions& options,
                      uint32_t parent) {
  SystemResult result;
  result.digest = kFnvBasis;
  SpanTrace* spans = options.trace;
  const bool traced = spans != nullptr && spans->enabled();
  aegaeon::FleetConfig config = spec.fleet_config;
  config.cell = spec.cell;
  if (options.shards > 0) {
    config.shards = options.shards;
    config.threads = options.shards;
  }
  aegaeon::FaultPlan plan;
  std::string error;
  if (!aegaeon::ParseFaultSpecs(spec.faults, &plan, &error)) {
    result.violations.push_back("fault plan: " + error);
    return result;
  }

  const uint32_t system = traced ? spans->Reserve("bench.system", parent) : 0;
  const uint32_t loop = traced ? spans->Reserve("sim.loop", system) : 0;
  const Clock::time_point t0 = Clock::now();
  aegaeon::ShardedFleet fleet(config, registry, aegaeon::GpuSpec::H800());
  plan.ApplyTo(fleet);
  TimingDispatcher* dispatcher = nullptr;
  if (options.timing_dispatcher) {
    auto timing = std::make_unique<TimingDispatcher>(spans, loop);
    dispatcher = timing.get();
    fleet.SetDispatcher(std::move(timing));
  }
  const Clock::time_point t1 = Clock::now();
  result.metrics = fleet.Run(trace);
  const Clock::time_point t2 = Clock::now();

  const Clock::time_point loop_start = dispatcher != nullptr ? dispatcher->first_route() : t1;
  result.host.ctor = Seconds(t0, t1);
  result.host.begin = dispatcher != nullptr ? Seconds(dispatcher->begin(), loop_start) : 0.0;
  result.host.loop = Seconds(loop_start, t2);
  if (traced) {
    spans->SetTimes(system, t0, t2);
    spans->Add("fleet.ctor", system, t0, t1);
    if (dispatcher != nullptr) {
      spans->Add("fleet.warm", system, dispatcher->begin(), loop_start);
    }
    spans->SetTimes(loop, loop_start, t2);
  }
  if (dispatcher != nullptr) {
    result.layers.routes = dispatcher->routes();
    result.fleet_host.route = dispatcher->route_seconds();
  }

  const RunMetrics& m = result.metrics;
  for (const aegaeon::SimPerfCounters& shard : m.shard_sim) {
    result.fleet_host.shard_advance += shard.wall_seconds;
    result.fleet_host.barrier_wait += shard.barrier_wait_seconds;
    result.layers.idle_shard_skips += shard.idle_shard_skips;
  }
  if (!m.shard_sim.empty()) {
    // Shard 0 advances on the calling thread, so the rest of the caller's
    // loop time is the serial barrier stage.
    result.fleet_host.serial = std::max(
        0.0, result.host.loop - m.shard_sim[0].wall_seconds - m.shard_sim[0].barrier_wait_seconds);
  }
  result.layers.epochs = m.sync_epochs;
  result.layers.epochs_skipped = m.sync_epochs_skipped;

  uint64_t injected = 0;
  RequestScan scan(spec.horizon, &result);
  for (int i = 0; i < fleet.cells(); ++i) {
    const AegaeonCluster& cell = fleet.cell(i);
    injected += cell.requests().size();
    for (const Request& r : cell.requests()) {
      scan.Add(r);
    }
    AddCellCounters(cell, m.horizon, &result.layers);
  }
  scan.Finish();
  result.outcomes.attempted = injected;

  uint64_t routed = 0;
  for (uint64_t n : fleet.routed()) {
    routed += n;
  }
  if (routed < trace.size()) {
    result.violations.push_back("routed " + std::to_string(routed) + " of " +
                                std::to_string(trace.size()) + " arrivals");
  }
  const aegaeon::FleetAudit audit = fleet.audit();
  result.simsan_checks = audit.checks;
  if (audit.sync_overruns != 0 || audit.violations != 0) {
    result.violations.push_back("fleet audit: " + std::to_string(audit.sync_overruns) +
                                " sync overruns, " + std::to_string(audit.violations) +
                                " SimSan violations");
  }
  Settle(trace.size(), &result);
  return result;
}

// Pools one replica's results into its ladder point.
void Absorb(const SystemResult& replica, SystemResult* point) {
  point->metrics.MergeFrom(replica.metrics);
  // MergeFrom leaves the fleet-level control-plane counters alone.
  aegaeon::CtrlStats& ctrl = point->metrics.ctrl;
  ctrl.heartbeats_sent += replica.metrics.ctrl.heartbeats_sent;
  ctrl.elections += replica.metrics.ctrl.elections;
  ctrl.failovers += replica.metrics.ctrl.failovers;
  ctrl.redispatched_requests += replica.metrics.ctrl.redispatched_requests;
  ctrl.leader_downtime += replica.metrics.ctrl.leader_downtime;
  point->makespan_sum += replica.makespan_sum;
  point->outcomes += replica.outcomes;
  point->digest = Fnv(point->digest, replica.digest);
  point->tpot.insert(point->tpot.end(), replica.tpot.begin(), replica.tpot.end());
  point->in_system_half += replica.in_system_half;
  point->in_system_end += replica.in_system_end;
  point->arrivals_second_half += replica.arrivals_second_half;
  point->host += replica.host;
  point->fleet_host += replica.fleet_host;
  point->layers += replica.layers;
  point->simsan_checks += replica.simsan_checks;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cell-sweep", "cell-saturated", "fleet-1024",
                                                 "overload-faults"};
  return names;
}

bool MakeWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "cell-sweep") {
    *spec = CellSweep();
  } else if (name == "cell-saturated") {
    *spec = CellSaturated();
  } else if (name == "fleet-1024") {
    *spec = Fleet1024();
  } else if (name == "overload-faults") {
    *spec = OverloadFaults();
  } else {
    return false;
  }
  return true;
}

ModelRegistry MakeRegistry(const WorkloadSpec& spec) {
  return ModelRegistry::MidSizeMarket(spec.models);
}

std::vector<std::vector<ArrivalEvent>> GenerateTraces(const WorkloadSpec& spec,
                                                      const ModelRegistry& registry,
                                                      uint64_t seed) {
  std::vector<std::vector<ArrivalEvent>> traces;
  for (double rate : spec.rates) {
    for (int r = 0; r < spec.replicas; ++r) {
      const uint64_t replica_seed = seed + static_cast<uint64_t>(r) * 0x9E3779B97F4A7C15ull;
      if (spec.bursty) {
        traces.push_back(aegaeon::GenerateBursty(registry, rate, spec.burst_multiplier,
                                                 spec.mean_calm, spec.mean_burst, spec.horizon,
                                                 aegaeon::Dataset::ShareGpt(), replica_seed));
      } else {
        traces.push_back(aegaeon::GeneratePoisson(registry, rate, spec.horizon,
                                                  aegaeon::Dataset::ShareGpt(), replica_seed));
      }
    }
  }
  return traces;
}

Outcomes& Outcomes::operator+=(const Outcomes& o) {
  attempted += o.attempted;
  completed += o.completed;
  rejected += o.rejected;
  shed += o.shed;
  timed_out += o.timed_out;
  return *this;
}

HostTimes& HostTimes::operator+=(const HostTimes& o) {
  ctor += o.ctor;
  begin += o.begin;
  inject += o.inject;
  loop += o.loop;
  finish += o.finish;
  return *this;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  dispatched += o.dispatched;
  prefill_wait += o.prefill_wait;
  decode_wait += o.decode_wait;
  control_overhead += o.control_overhead;
  data_overhead += o.data_overhead;
  switches += o.switches;
  switch_seconds += o.switch_seconds;
  prefetch_hits += o.prefetch_hits;
  prefetch_issued += o.prefetch_issued;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  cache_evictions += o.cache_evictions;
  ssd_hits += o.ssd_hits;
  kv_peak_held_bytes += o.kv_peak_held_bytes;
  kv_used_at_peak += o.kv_used_at_peak;
  kv_peak_slabs += o.kv_peak_slabs;
  swap_outs += o.swap_outs;
  swap_ins += o.swap_ins;
  bytes_moved += o.bytes_moved;
  move_list_peak = std::max(move_list_peak, o.move_list_peak);
  deferred_frees += o.deferred_frees;
  gpus += o.gpus;
  gpu_busy_seconds += o.gpu_busy_seconds;
  gpu_seconds += o.gpu_seconds;
  proxy_arrivals += o.proxy_arrivals;
  proxy_dispatched += o.proxy_dispatched;
  proxy_retries += o.proxy_retries;
  proxy_degraded += o.proxy_degraded;
  events += o.events;
  routes += o.routes;
  epochs += o.epochs;
  epochs_skipped += o.epochs_skipped;
  idle_shard_skips += o.idle_shard_skips;
  return *this;
}

FleetHost& FleetHost::operator+=(const FleetHost& o) {
  shard_advance += o.shard_advance;
  barrier_wait += o.barrier_wait;
  serial += o.serial;
  route += o.route;
  return *this;
}

bool SystemResult::BacklogGrowing() const {
  return static_cast<double>(in_system_end) >
         static_cast<double>(in_system_half) + 0.05 * static_cast<double>(arrivals_second_half);
}

double SystemResult::Goodput() const {
  return makespan_sum > 0.0 ? static_cast<double>(metrics.slo_good_requests) / makespan_sum : 0.0;
}

double SystemResult::TpotP99() const { return aegaeon::Percentile(tpot, 99.0); }

WorkloadResult RunWorkload(const WorkloadSpec& spec, const ModelRegistry& registry,
                           const std::vector<std::vector<ArrivalEvent>>& traces,
                           const RunOptions& options) {
  WorkloadResult result;
  result.primary = spec.primary;
  result.time_every_rate = spec.time_every_rate;
  result.digest = kFnvBasis;
  SpanTrace* spans = options.trace;
  const bool traced = spans != nullptr && spans->enabled();
  const uint32_t root = traced ? spans->Reserve("bench.workload", 0) : 0;
  const Clock::time_point start = Clock::now();

  std::vector<LadderPoint> ladder;
  for (size_t i = 0; i < spec.rates.size(); ++i) {
    SystemResult point;
    point.rate = spec.rates[i];
    point.digest = kFnvBasis;
    if (options.timed_rates_only && !result.Timed(i)) {
      result.points.push_back(std::move(point));
      continue;
    }
    for (int r = 0; r < spec.replicas; ++r) {
      const std::vector<ArrivalEvent>& trace = traces[i * spec.replicas + r];
      SystemResult system = spec.fleet ? RunFleet(spec, registry, trace, options, root)
                                       : RunCell(spec, registry, trace, spans, root);
      system.rate = point.rate;
      result.digest = Fnv(result.digest, system.digest);
      for (const std::string& v : system.violations) {
        result.violations.push_back(spec.name + " @" + std::to_string(system.rate) + ": " + v);
      }
      Absorb(system, &point);
    }
    ladder.push_back({point.rate, point.metrics.SloAttainment(), point.BacklogGrowing()});
    result.points.push_back(std::move(point));
  }
  if (!options.timed_rates_only) {
    result.rate_at_slo = RateAtSlo(ladder);
  }
  if (traced) {
    spans->SetTimes(root, start, Clock::now());
  }
  return result;
}

double RateAtSlo(const std::vector<LadderPoint>& points) {
  double best = 0.0;
  for (const LadderPoint& p : points) {
    if (p.attainment >= kSloLine && !p.backlog_growing) {
      best = std::max(best, p.rate);
    }
  }
  return best;
}

}  // namespace perfbench
