#include "analysis/report.h"

#include <map>
#include <ostream>

#include "analysis/stats.h"
#include "analysis/table.h"

namespace aegaeon {

namespace {

template <typename Container>
std::vector<ModelReport> BuildPerModelReportImpl(const Container& requests,
                                                 const ModelRegistry& registry) {
  std::map<ModelId, ModelReport> by_model;
  std::map<ModelId, std::vector<double>> ttfts;
  for (const Request& r : requests) {
    ModelReport& report = by_model[r.model];
    if (report.requests == 0) {
      report.id = r.model;
      report.name = registry.Get(r.model).spec.name;
    }
    report.requests++;
    report.completed += r.finished() ? 1 : 0;
    report.tokens_total += r.output_tokens;
    report.tokens_met += r.tokens_met;
    report.tokens_generated += r.generated;
    report.exec_seconds += r.prefill_exec + r.decode_exec;
    switch (r.proxy_outcome) {
      case ProxyOutcome::kRejected: report.rejected++; break;
      case ProxyOutcome::kShed: report.shed++; break;
      case ProxyOutcome::kTimedOut: report.timed_out++; break;
      case ProxyOutcome::kNone: break;
    }
    if (r.first_token_time != kTimeUnset) {
      ttfts[r.model].push_back(r.first_token_time - r.arrival);
    }
  }
  std::vector<ModelReport> rows;
  rows.reserve(by_model.size());
  for (auto& [id, report] : by_model) {
    report.mean_ttft = Mean(ttfts[id]);
    report.p99_ttft = Percentile(ttfts[id], 99);
    rows.push_back(std::move(report));
  }
  return rows;
}

}  // namespace

std::vector<ModelReport> BuildPerModelReport(const std::vector<Request>& requests,
                                             const ModelRegistry& registry) {
  return BuildPerModelReportImpl(requests, registry);
}

std::vector<ModelReport> BuildPerModelReport(const std::deque<Request>& requests,
                                             const ModelRegistry& registry) {
  return BuildPerModelReportImpl(requests, registry);
}

void PrintPerModelReport(std::ostream& os, const std::vector<ModelReport>& report) {
  bool any_rejected = false, any_shed = false, any_timed_out = false, any_cost = false;
  for (const ModelReport& row : report) {
    any_rejected |= row.rejected > 0;
    any_shed |= row.shed > 0;
    any_timed_out |= row.timed_out > 0;
    any_cost |= row.cost_per_1k_tokens > 0.0;
  }
  std::vector<std::string> headers = {"model", "requests", "completed"};
  if (any_rejected) headers.push_back("rejected");
  if (any_shed) headers.push_back("shed");
  if (any_timed_out) headers.push_back("timeout");
  headers.insert(headers.end(), {"SLO attain", "mean TTFT", "p99 TTFT"});
  if (any_cost) headers.push_back("$/1k tok");
  Table table(std::move(headers));
  for (const ModelReport& row : report) {
    std::vector<std::string> cells = {row.name, std::to_string(row.requests),
                                      std::to_string(row.completed)};
    if (any_rejected) cells.push_back(std::to_string(row.rejected));
    if (any_shed) cells.push_back(std::to_string(row.shed));
    if (any_timed_out) cells.push_back(std::to_string(row.timed_out));
    cells.insert(cells.end(), {Table::Pct(row.Attainment()), Table::Num(row.mean_ttft, 3) + "s",
                               Table::Num(row.p99_ttft, 3) + "s"});
    if (any_cost) cells.push_back(Table::Num(row.cost_per_1k_tokens, 4));
    table.AddRow(std::move(cells));
  }
  table.Print(os);
}

void ApplyPoolCost(std::vector<ModelReport>& report, const RunMetrics& metrics) {
  if (metrics.pool_cost_per_hour <= 0.0 || metrics.horizon <= 0.0) {
    return;
  }
  double total_exec = 0.0;
  for (const ModelReport& row : report) {
    total_exec += row.exec_seconds;
  }
  if (total_exec <= 0.0) {
    return;
  }
  double total_cost = metrics.pool_cost_per_hour * metrics.horizon / 3600.0;
  for (ModelReport& row : report) {
    if (row.tokens_generated <= 0) {
      continue;
    }
    double share = row.exec_seconds / total_exec;
    row.cost_per_1k_tokens =
        total_cost * share / (static_cast<double>(row.tokens_generated) / 1000.0);
  }
}

double JainFairness(const std::vector<ModelReport>& report) {
  if (report.empty()) {
    return 1.0;
  }
  double sum = 0.0, sum_sq = 0.0;
  for (const ModelReport& row : report) {
    double x = row.Attainment();
    sum += x;
    sum_sq += x * x;
  }
  // LINT-ALLOW(float-equality): exact-zero guard — sum of squares of
  // non-negative attainments is exactly 0 iff every term is exactly 0, and
  // anything else makes the division below well-defined
  if (sum_sq == 0.0) {
    return 1.0;  // everyone equally at zero
  }
  return (sum * sum) / (static_cast<double>(report.size()) * sum_sq);
}

void WriteMetricsJson(std::ostream& os, const RunMetrics& metrics) {
  os.precision(6);
  os << "{"
     << "\"total_requests\":" << metrics.total_requests << ","
     << "\"completed_requests\":" << metrics.completed_requests << ","
     << "\"tokens_total\":" << metrics.tokens_total << ","
     << "\"tokens_met\":" << metrics.tokens_met << ","
     << "\"slo_attainment\":" << metrics.SloAttainment() << ","
     << "\"throughput_rps\":" << metrics.Throughput() << ","
     << "\"goodput_rps\":" << metrics.Goodput() << ",";
  // Proxy-outcome counters only appear when nonzero, so proxy-less runs
  // keep their original key set.
  if (metrics.rejected_requests > 0) {
    os << "\"rejected_requests\":" << metrics.rejected_requests << ",";
  }
  if (metrics.shed_requests > 0) {
    os << "\"shed_requests\":" << metrics.shed_requests << ",";
  }
  if (metrics.timed_out_requests > 0) {
    os << "\"timed_out_requests\":" << metrics.timed_out_requests << ",";
  }
  if (metrics.degraded_requests > 0) {
    os << "\"degraded_requests\":" << metrics.degraded_requests << ",";
  }
  if (metrics.retry_attempts > 0) {
    os << "\"retry_attempts\":" << metrics.retry_attempts << ",";
  }
  // Control-plane replication block only when anything happened (same
  // convention: unreplicated runs keep their original key set). These are
  // simulated, deterministic counters — safe to diff across runs.
  if (metrics.ctrl.Any()) {
    os << "\"ctrl\":{"
       << "\"heartbeats_sent\":" << metrics.ctrl.heartbeats_sent << ","
       << "\"heartbeats_missed\":" << metrics.ctrl.heartbeats_missed << ","
       << "\"elections\":" << metrics.ctrl.elections << ","
       << "\"failovers\":" << metrics.ctrl.failovers << ","
       << "\"redispatched_requests\":" << metrics.ctrl.redispatched_requests << ","
       << "\"frontdoor_replays\":" << metrics.ctrl.frontdoor_replays << ","
       << "\"max_log_depth\":" << metrics.ctrl.max_log_depth << ","
       << "\"leader_downtime\":" << metrics.ctrl.leader_downtime << "},";
  }
  // Cost keys only when the pool has a rental rate (same convention as the
  // proxy counters: cost-less runs keep their original key set).
  if (metrics.pool_cost_per_hour > 0.0) {
    os << "\"pool_cost_per_hour\":" << metrics.pool_cost_per_hour << ","
       << "\"tokens_generated\":" << metrics.tokens_generated << ","
       << "\"cost_per_1k_tokens\":" << metrics.CostPer1kTokens() << ",";
  }
  // Host-side simulation cost: pooled counters always; per-shard breakdown
  // and epoch count only for sharded-fleet runs. Wall-clock values are
  // measured, not simulated — dashboards must not diff them across runs.
  os << "\"sim\":{"
     << "\"events_processed\":" << metrics.sim.events_processed << ","
     << "\"heap_peak\":" << metrics.sim.heap_peak << ","
     << "\"wall_seconds\":" << metrics.sim.wall_seconds << ","
     << "\"events_per_sec\":" << metrics.sim.EventsPerSec();
  if (metrics.sync_epochs > 0) {
    os << ",\"sync_epochs\":" << metrics.sync_epochs
       << ",\"sync_epochs_skipped\":" << metrics.sync_epochs_skipped;
  }
  if (!metrics.shard_sim.empty()) {
    os << ",\"shards\":[";
    for (size_t i = 0; i < metrics.shard_sim.size(); ++i) {
      const SimPerfCounters& shard = metrics.shard_sim[i];
      os << (i == 0 ? "" : ",") << "{"
         << "\"events_processed\":" << shard.events_processed << ","
         << "\"wall_seconds\":" << shard.wall_seconds << ","
         << "\"idle_shard_skips\":" << shard.idle_shard_skips << ","
         << "\"barrier_wait_seconds\":" << shard.barrier_wait_seconds;
      if (shard.epochs_skipped > 0) {
        // Global loop property, stamped on shard 0 (see SimPerfCounters).
        os << ",\"epochs_skipped\":" << shard.epochs_skipped;
      }
      os << "}";
    }
    os << "]";
  }
  os << "},";
  os << "\"horizon_s\":" << metrics.horizon << ","
     << "\"ttft_mean_s\":" << Mean(metrics.ttft_samples) << ","
     << "\"ttft_p99_s\":"
     << Percentile(metrics.ttft_samples, 99) << ","
     << "\"switches\":" << metrics.switch_latency_samples.size() << ","
     << "\"switch_mean_s\":" << Mean(metrics.switch_latency_samples) << ","
     << "\"breakdown\":{"
     << "\"prefill_wait_s\":" << metrics.breakdown.prefill_wait << ","
     << "\"prefill_exec_s\":" << metrics.breakdown.prefill_exec << ","
     << "\"decode_wait_s\":" << metrics.breakdown.decode_wait << ","
     << "\"decode_exec_s\":" << metrics.breakdown.decode_exec << ","
     << "\"control_overhead_s\":" << metrics.breakdown.control_overhead << ","
     << "\"data_overhead_s\":" << metrics.breakdown.data_overhead << "}}";
}

}  // namespace aegaeon
