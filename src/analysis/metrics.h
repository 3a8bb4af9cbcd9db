// Run-level metrics: token-level SLO attainment (§2.1), the request latency
// breakdown of Figure 14, and the latency samples behind Figure 15.

#ifndef AEGAEON_ANALYSIS_METRICS_H_
#define AEGAEON_ANALYSIS_METRICS_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/request.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace aegaeon {

struct LatencyBreakdown {
  Duration prefill_wait = 0.0;
  Duration prefill_exec = 0.0;
  Duration decode_wait = 0.0;
  Duration decode_exec = 0.0;
  Duration control_overhead = 0.0;
  Duration data_overhead = 0.0;

  Duration Total() const {
    return prefill_wait + prefill_exec + decode_wait + decode_exec + control_overhead +
           data_overhead;
  }

  LatencyBreakdown& operator+=(const LatencyBreakdown& other);
};

// Replicated-control-plane outcomes (src/ctrl). All zero when the fleet
// runs a sole always-alive dispatcher replica with no dispatcher faults —
// the unreplicated configuration. Unlike the host-cost counters these are
// simulated results: deterministic, bit-identical across shard and worker
// counts.
struct CtrlStats {
  uint64_t heartbeats_sent = 0;    // heartbeat messages leaders emitted
  uint64_t heartbeats_missed = 0;  // heartbeats that reached a crashed replica
  uint64_t elections = 0;          // campaigns started (including retries)
  uint64_t failovers = 0;          // leadership changes after boot
  // In-flight arrivals lost with a dead leader and replayed by its
  // successor (each exactly once).
  uint64_t redispatched_requests = 0;
  // Replayed entries absent from the successor's shadow log (routed within
  // one replication hop of the crash): recovered via front-door retry.
  uint64_t frontdoor_replays = 0;
  // High-water mark of the re-dispatch log plus the front-door queue.
  uint64_t max_log_depth = 0;
  Duration leader_downtime = 0.0;  // simulated seconds with no live leader

  bool Any() const {
    return heartbeats_sent != 0 || heartbeats_missed != 0 || elections != 0 ||
           failovers != 0 || redispatched_requests != 0 || frontdoor_replays != 0 ||
           leader_downtime > 0.0;
  }
};

struct RunMetrics {
  uint64_t total_requests = 0;
  uint64_t completed_requests = 0;
  int64_t tokens_total = 0;
  int64_t tokens_met = 0;
  // Tokens actually produced (<= tokens_total when requests go unfinished).
  int64_t tokens_generated = 0;
  Duration horizon = 0.0;  // simulated makespan

  // Rental cost of the pool that produced this run, $/hour. 0 means unset
  // (GpuSpec::cost_per_hour defaults to 0); cost-derived report columns are
  // omitted then.
  double pool_cost_per_hour = 0.0;

  LatencyBreakdown breakdown;

  // Serving-proxy outcomes (src/serve). All zero when the proxy is
  // disabled: every request is then dispatched unconditionally.
  uint64_t rejected_requests = 0;   // admission control turned them away
  uint64_t shed_requests = 0;       // evicted from the held queue
  uint64_t timed_out_requests = 0;  // deadline expired while held
  uint64_t degraded_requests = 0;   // output capped under overload
  uint64_t retry_attempts = 0;      // failure-displaced re-dispatches
  // Completed requests meeting the goodput floor (>= 90% of their tokens
  // produced on time) — the numerator of Goodput().
  uint64_t slo_good_requests = 0;

  std::vector<double> ttft_samples;
  std::vector<double> request_latency_samples;
  std::vector<double> switch_latency_samples;   // Figure 15 (left)
  std::vector<double> kv_sync_samples;          // Figure 15 (right)

  // Host-side cost of producing this run (events processed, wall-clock).
  // Measured, not simulated: excluded from determinism comparisons.
  SimPerfCounters sim;

  // Per-shard host-side cost when this run was produced by the sharded
  // fleet; empty for single-cluster runs. `sim` holds the pooled totals
  // either way. Measured, not simulated — excluded from determinism
  // comparisons like `sim`.
  std::vector<SimPerfCounters> shard_sim;
  // Conservative-sync epochs executed by the fleet (0 for single-cluster
  // runs). Deterministic: a pure function of the trace and the lookahead.
  uint64_t sync_epochs = 0;
  // Lookahead slots the fleet's barrier loop jumped without an epoch (dead
  // slots snapped over + slots batched into a four-slot window). Deterministic,
  // like sync_epochs.
  uint64_t sync_epochs_skipped = 0;

  // Control-plane replication outcomes; fleet-level like shard_sim (left
  // untouched by MergeFrom), but simulated and deterministic.
  CtrlStats ctrl;

  // Folds another run's simulated results into this one (cell -> fleet
  // aggregation): sums the counters, concatenates the samples, keeps the
  // max horizon, and pools `sim`. shard_sim/sync_epochs are fleet-level and
  // left untouched.
  RunMetrics& MergeFrom(const RunMetrics& other);

  // Token-level SLO attainment in [0, 1]; requests that never produced a
  // token count all their tokens as missed.
  double SloAttainment() const {
    return tokens_total == 0 ? 1.0 : static_cast<double>(tokens_met) / tokens_total;
  }

  // Completed requests per second over the makespan.
  double Throughput() const {
    return horizon <= 0.0 ? 0.0 : static_cast<double>(completed_requests) / horizon;
  }

  // SLO-attained completed requests per second: the overload headline. A
  // system that admits everything and misses every deadline has high
  // throughput and zero goodput.
  double Goodput() const {
    return horizon <= 0.0 ? 0.0 : static_cast<double>(slo_good_requests) / horizon;
  }

  // Serving cost in $ per 1000 generated tokens: the pool's hourly rent
  // over the makespan divided by tokens produced. 0 when cost is unset or
  // nothing was generated.
  double CostPer1kTokens() const {
    if (pool_cost_per_hour <= 0.0 || tokens_generated <= 0 || horizon <= 0.0) {
      return 0.0;
    }
    return pool_cost_per_hour * (horizon / 3600.0) /
           (static_cast<double>(tokens_generated) / 1000.0);
  }
};

// Folds per-request records into run metrics. `horizon` is the simulated
// completion time of the run. Unfinished requests contribute their
// never-generated tokens as SLO misses (they were due by the horizon).
RunMetrics FoldRequests(const std::vector<Request>& requests, Duration horizon);
// Deque overload: AegaeonCluster stores requests in a deque so pointers
// stay stable under the fleet's incremental arrival injection.
RunMetrics FoldRequests(const std::deque<Request>& requests, Duration horizon);

// Derives decode_wait for completed requests as (completion - first token)
// minus decode execution, for systems that don't track waits inline (the
// baseline runners).
void FillDecodeWaits(std::vector<Request>& requests);
void FillDecodeWaits(std::deque<Request>& requests);

}  // namespace aegaeon

#endif  // AEGAEON_ANALYSIS_METRICS_H_
