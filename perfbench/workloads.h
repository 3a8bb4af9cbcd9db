// The benchmark's workloads: each one builds systems through the public
// API of src/core (AegaeonCluster, ShardedFleet), serves traces generated
// by src/workload, checks every run's outcomes, and times the public calls.
//
// Arrivals are open-loop schedules in simulated time: the whole trace is
// generated up front and each arrival is injected at its simulated
// timestamp, so the generator can never run late.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/fleet.h"
#include "core/request.h"
#include "model/registry.h"
#include "span_trace.h"

namespace perfbench {

// Token-level attainment a ladder point must reach to count as meeting the
// SLO (the paper's goodput line).
inline constexpr double kSloLine = 0.90;

struct WorkloadSpec {
  std::string name;
  bool fleet = false;  // ShardedFleet of `fleet_config` cells; else one cell
  int models = 0;      // ModelRegistry::MidSizeMarket(models)
  aegaeon::AegaeonConfig cell;
  aegaeon::FleetConfig fleet_config;
  // Arrival process: per-model Poisson at each ladder rate, or, when
  // `bursty`, a two-state MMPP whose calm rate is the ladder rate.
  bool bursty = false;
  double burst_multiplier = 1.0;
  aegaeon::Duration mean_calm = 0.0;
  aegaeon::Duration mean_burst = 0.0;
  aegaeon::Duration horizon = 0.0;  // simulated seconds of arrivals
  // Per-model rates served, one system each, in increasing order;
  // rate_at_slo is the highest that meets the SLO line.
  std::vector<double> rates;
  // The ladder point that carries the latency and SLO metrics.
  size_t primary = 0;
  // Rates the host-time metrics cover: every rate when set, else only the
  // primary. The other rates are deterministic and run once per benchmark
  // run, for rate_at_slo and the correctness gate.
  bool time_every_rate = false;
  // Independent traces served per rate (one system each), pooled into the
  // point's metrics so seed-to-seed spread shrinks.
  int replicas = 1;
  // Fault specs (ctrl/fault_plan.h syntax) applied to every fleet system.
  std::vector<std::string> faults;
};

const std::vector<std::string>& WorkloadNames();
// False when `name` is not a workload.
bool MakeWorkload(const std::string& name, WorkloadSpec* spec);

aegaeon::ModelRegistry MakeRegistry(const WorkloadSpec& spec);
// `replicas` traces per ladder rate, rate-major. Replica 0 uses `seed`;
// the others use seeds derived from it.
std::vector<std::vector<aegaeon::ArrivalEvent>> GenerateTraces(
    const WorkloadSpec& spec, const aegaeon::ModelRegistry& registry, uint64_t seed);

// Every attempted request ends in exactly one of these states.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t shed = 0;
  uint64_t timed_out = 0;

  uint64_t failed() const { return rejected + shed + timed_out; }
  Outcomes& operator+=(const Outcomes& other);
};

// Host seconds of the public calls. For a cell: constructor, BeginRun,
// InjectArrivals, AdvanceAll, FinishRun. For a fleet: constructor (with
// fault plan and dispatcher installation), warm (dispatcher BeginRun to
// first Route, covering every cell's BeginRun), and loop (first Route to
// the return of Run, which includes the cells' FinishRun).
struct HostTimes {
  double ctor = 0.0;
  double begin = 0.0;
  double inject = 0.0;
  double loop = 0.0;
  double finish = 0.0;

  double Setup() const { return ctor + begin + inject; }
  // Loop start until metrics are returned.
  double Run() const { return loop + finish; }
  HostTimes& operator+=(const HostTimes& other);
};

// Deterministic per-layer counters of one system, summed over a fleet's
// cells and over pooled replicas (ratios are formed from the sums).
struct LayerCounters {
  uint64_t dispatched = 0;  // requests that reached the backend
  double prefill_wait = 0.0;
  double decode_wait = 0.0;
  double control_overhead = 0.0;
  double data_overhead = 0.0;
  uint64_t switches = 0;
  double switch_seconds = 0.0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_issued = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t ssd_hits = 0;
  uint64_t kv_peak_held_bytes = 0;
  uint64_t kv_used_at_peak = 0;
  uint64_t kv_peak_slabs = 0;
  uint64_t swap_outs = 0;
  uint64_t swap_ins = 0;
  double bytes_moved = 0.0;
  uint64_t move_list_peak = 0;  // max, not sum
  uint64_t deferred_frees = 0;
  uint64_t gpus = 0;
  double gpu_busy_seconds = 0.0;
  double gpu_seconds = 0.0;  // GPUs x makespan
  uint64_t proxy_arrivals = 0;
  uint64_t proxy_dispatched = 0;
  uint64_t proxy_retries = 0;
  uint64_t proxy_degraded = 0;
  uint64_t events = 0;
  uint64_t routes = 0;  // Dispatcher::Route calls (fleets)
  uint64_t epochs = 0;
  uint64_t epochs_skipped = 0;
  uint64_t idle_shard_skips = 0;

  LayerCounters& operator+=(const LayerCounters& other);
};

// Host-side fleet loop breakdown, from RunMetrics::shard_sim.
struct FleetHost {
  double shard_advance = 0.0;  // advance time summed over shards
  double barrier_wait = 0.0;   // barrier wait summed over workers
  double serial = 0.0;         // loop time the caller spent neither advancing nor waiting
  double route = 0.0;          // time inside Route (traced runs only)

  FleetHost& operator+=(const FleetHost& other);
};

// One system serving one trace, or the pool of a ladder point's replicas.
struct SystemResult {
  double rate = 0.0;
  // Simulated results. For a pool, MergeFrom of the replicas; use
  // makespan_sum, not metrics.horizon, for per-second rates.
  aegaeon::RunMetrics metrics;
  double makespan_sum = 0.0;
  Outcomes outcomes;
  // Hash of per-request outcomes in cell order; a pool hashes its
  // replicas' digests.
  uint64_t digest = 0;
  std::vector<double> tpot;  // per completed request with > 1 output token
  // Requests in the system at the midpoint and at the end of the arrival
  // window, and the arrivals of its second half (the backlog test).
  uint64_t in_system_half = 0;
  uint64_t in_system_end = 0;
  uint64_t arrivals_second_half = 0;
  HostTimes host;
  FleetHost fleet_host;
  LayerCounters layers;
  // SimSan checks run across a fleet's cells (fleet audit; 0 unless the
  // library is built with AEGAEON_SIMSAN).
  uint64_t simsan_checks = 0;
  std::vector<std::string> violations;

  // Growing backlog: the requests in the system at the end of the arrival
  // window exceed those at its midpoint by more than 5% of the second
  // half's arrivals. A stable system holds a roughly constant number in
  // flight; one past its knee accumulates the excess.
  bool BacklogGrowing() const;
  double Goodput() const;
  double TpotP99() const;
};

struct RunOptions {
  // 0 keeps the workload's shard count.
  int shards = 0;
  // Installs the pass-through timing dispatcher on fleets. Without it the
  // fleet's warm and loop cannot be told apart.
  bool timing_dispatcher = true;
  SpanTrace* trace = nullptr;  // null: no spans
  // Runs only the timed rates (WorkloadSpec::time_every_rate); the other
  // points of the result stay empty.
  bool timed_rates_only = false;
};

struct WorkloadResult {
  // One result per ladder rate, pooled over its replicas.
  std::vector<SystemResult> points;
  size_t primary = 0;
  bool time_every_rate = false;
  double rate_at_slo = 0.0;
  uint64_t digest = 0;  // over every system run, in ladder order
  std::vector<std::string> violations;

  const SystemResult& Primary() const { return points[primary]; }
  // Whether point `i` is covered by the host-time metrics.
  bool Timed(size_t i) const { return time_every_rate || i == primary; }
};

WorkloadResult RunWorkload(const WorkloadSpec& spec, const aegaeon::ModelRegistry& registry,
                           const std::vector<std::vector<aegaeon::ArrivalEvent>>& traces,
                           const RunOptions& options);

struct LadderPoint {
  double rate = 0.0;
  double attainment = 0.0;
  bool backlog_growing = false;
};

// The highest rate whose run reaches kSloLine attainment with no growing
// backlog; 0 when none does.
double RateAtSlo(const std::vector<LadderPoint>& points);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
