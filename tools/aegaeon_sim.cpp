// aegaeon_sim — command-line driver for the serving simulator.
//
// Runs a chosen serving system against a synthetic or replayed workload and
// prints token-level SLO metrics. Examples:
//
//   aegaeon_sim --system aegaeon --models 40 --rps 0.1 --horizon 300
//   aegaeon_sim --system sllm+ --models 40 --rps 0.1 --gpus 16
//   aegaeon_sim --system aegaeon --trace-in workload.csv --timeline t.json
//   aegaeon_sim --models 24 --rps 0.2 --trace-out workload.csv --dry-run

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/stats.h"
#include "analysis/timeline.h"
#include "baselines/dedicated.h"
#include "baselines/muxserve.h"
#include "baselines/serverless_llm.h"
#include "baselines/unified.h"
#include "core/cluster.h"
#include "core/fleet.h"
#include "ctrl/fault_plan.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "sim/parse_number.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "planner/workload_matrix.h"
#include "workload/trace.h"

namespace {

using namespace aegaeon;

struct Options {
  std::string system = "aegaeon";  // aegaeon|sllm|sllm+|mux|dedicated|unified-pf|unified-df
  int models = 20;
  double rps = 0.1;
  double horizon = 300.0;
  int gpus = 16;
  int prefill = 6;
  int decode = 10;
  std::string gpu = "h800";  // h800|h20|a10|a100
  std::string dataset = "sharegpt";
  uint64_t seed = 2025;
  double slo_scale = 1.0;
  std::string trace_in;
  std::string trace_out;
  std::string timeline;
  bool dry_run = false;
  int nodes = 1;
  int residents = 1;
  int cells = 1;
  int shards = 1;
  double dispatch_latency = 0.05;
  int ctrl_replicas = 1;
  // Fault specs in flag order (ctrl/fault_plan.h syntax); --kill-dispatcher
  // and --aging-drift are sugar that appends here too.
  std::vector<std::string> fault_specs;
  bool per_model = false;
  std::string json_out;
  std::string matrix_out;
};

void Usage() {
  std::printf(
      "usage: aegaeon_sim [options]\n"
      "  --system S     aegaeon|sllm|sllm+|mux|dedicated|unified-pf|unified-df\n"
      "  --models N     number of models in the market (default 20)\n"
      "  --rps R        per-model Poisson arrival rate (default 0.1)\n"
      "  --horizon T    trace length in seconds (default 300)\n"
      "  --gpus N       GPUs for baseline systems (default 16)\n"
      "  --prefill N    Aegaeon prefill instances (default 6)\n"
      "  --decode N     Aegaeon decoding instances (default 10)\n"
      "  --gpu G        h800|h20|a10|a100 (default h800)\n"
      "  --dataset D    sharegpt|sharegpt-ix2|sharegpt-ox2 (default sharegpt)\n"
      "  --slo-scale X  scale TTFT/TBT targets (default 1.0)\n"
      "  --seed S       workload seed (default 2025)\n"
      "  --trace-in F   replay a CSV trace instead of generating one\n"
      "  --trace-out F  save the generated trace as CSV\n"
      "  --timeline F   write a Chrome trace of instance activity (aegaeon only)\n"
      "  --nodes N      physical nodes the Aegaeon pool spans (default 1)\n"
      "  --residents N  co-resident models per instance (hybrid mode; default 1)\n"
      "  --cells N      Aegaeon serving cells in the fleet (default 1; >1 runs the\n"
      "                 sharded fleet executor with a fleet dispatcher)\n"
      "  --shards N     parallel shards for the fleet executor (default 1; results\n"
      "                 are bit-identical for any value)\n"
      "  --dispatch-latency S  fleet router -> cell hop in seconds (default 0.05)\n"
      "  --ctrl-replicas N     dispatcher replicas for the fleet control plane\n"
      "                 (default 1 = replication off; aegaeon only)\n"
      "  --fail SPEC    schedule a fault (repeatable; aegaeon only):\n"
      "                 prefill:IDX@T+DT | decode:IDX@T+DT | dispatcher@T[+DT] |\n"
      "                 link:FACTOR@T+DT | aging:LRATE[,FRATE][@T]; prefix\n"
      "                 cell/C/ targets one fleet cell\n"
      "  --kill-dispatcher T   sugar for --fail dispatcher@T (forces the fleet\n"
      "                 executor even with --cells 1)\n"
      "  --aging-drift RATE    sugar for --fail aging:RATE (latency drift)\n"
      "  --per-model    print a per-model quality report\n"
      "  --json F       write headline metrics as JSON\n"
      "  --dump-workload-matrix F  write the planner's (model x input x output)\n"
      "                 rate matrix of the trace as CSV and continue\n"
      "  --dry-run      generate/save the trace and exit without serving\n");
}

GpuSpec PickGpu(const std::string& name) {
  if (name == "h800") {
    return GpuSpec::H800();
  }
  if (name == "h20") {
    return GpuSpec::H20();
  }
  if (name == "a10") {
    return GpuSpec::A10();
  }
  if (name == "a100") {
    return GpuSpec::A100();
  }
  std::fprintf(stderr, "unknown --gpu '%s'\n", name.c_str());
  std::exit(2);
}

Dataset PickDataset(const std::string& name) {
  if (name == "sharegpt") {
    return Dataset::ShareGpt();
  }
  if (name == "sharegpt-ix2") {
    return Dataset::ShareGptIx2();
  }
  if (name == "sharegpt-ox2") {
    return Dataset::ShareGptOx2();
  }
  std::fprintf(stderr, "unknown --dataset '%s'\n", name.c_str());
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](const char* flag, auto* out) {
      const char* text = next(flag);
      if (!ParseNumber(text, out)) {
        std::fprintf(stderr, "invalid value '%s' for %s\n", text, flag);
        std::exit(2);
      }
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else if (arg == "--system") {
      opts.system = next("--system");
    } else if (arg == "--models") {
      number("--models", &opts.models);
    } else if (arg == "--rps") {
      number("--rps", &opts.rps);
    } else if (arg == "--horizon") {
      number("--horizon", &opts.horizon);
    } else if (arg == "--gpus") {
      number("--gpus", &opts.gpus);
    } else if (arg == "--prefill") {
      number("--prefill", &opts.prefill);
    } else if (arg == "--decode") {
      number("--decode", &opts.decode);
    } else if (arg == "--gpu") {
      opts.gpu = next("--gpu");
    } else if (arg == "--dataset") {
      opts.dataset = next("--dataset");
    } else if (arg == "--slo-scale") {
      number("--slo-scale", &opts.slo_scale);
    } else if (arg == "--seed") {
      number("--seed", &opts.seed);
    } else if (arg == "--trace-in") {
      opts.trace_in = next("--trace-in");
    } else if (arg == "--trace-out") {
      opts.trace_out = next("--trace-out");
    } else if (arg == "--timeline") {
      opts.timeline = next("--timeline");
    } else if (arg == "--nodes") {
      number("--nodes", &opts.nodes);
    } else if (arg == "--residents") {
      number("--residents", &opts.residents);
    } else if (arg == "--cells") {
      number("--cells", &opts.cells);
    } else if (arg == "--shards") {
      number("--shards", &opts.shards);
    } else if (arg == "--dispatch-latency") {
      number("--dispatch-latency", &opts.dispatch_latency);
    } else if (arg == "--ctrl-replicas") {
      number("--ctrl-replicas", &opts.ctrl_replicas);
    } else if (arg == "--fail") {
      opts.fault_specs.push_back(next("--fail"));
    } else if (arg == "--kill-dispatcher") {
      opts.fault_specs.push_back(std::string("dispatcher@") + next("--kill-dispatcher"));
    } else if (arg == "--aging-drift") {
      opts.fault_specs.push_back(std::string("aging:") + next("--aging-drift"));
    } else if (arg == "--per-model") {
      opts.per_model = true;
    } else if (arg == "--json") {
      opts.json_out = next("--json");
    } else if (arg == "--dump-workload-matrix") {
      opts.matrix_out = next("--dump-workload-matrix");
    } else if (arg == "--dry-run") {
      opts.dry_run = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opts.models <= 0 || opts.rps <= 0.0 || opts.horizon <= 0.0) {
    std::fprintf(stderr, "--models, --rps, and --horizon must be positive\n");
    return false;
  }
  if (opts.cells < 1 || opts.shards < 1) {
    std::fprintf(stderr, "--cells and --shards must be >= 1\n");
    return false;
  }
  if (opts.cells > 1 && opts.dispatch_latency <= 0.0) {
    std::fprintf(stderr, "--dispatch-latency must be > 0 when --cells > 1\n");
    return false;
  }
  if (opts.ctrl_replicas < 1) {
    std::fprintf(stderr, "--ctrl-replicas must be >= 1\n");
    return false;
  }
  if ((!opts.fault_specs.empty() || opts.ctrl_replicas > 1) && opts.system != "aegaeon") {
    std::fprintf(stderr, "--fail/--kill-dispatcher/--aging-drift/--ctrl-replicas require "
                         "--system aegaeon\n");
    return false;
  }
  return true;
}

void PrintMetrics(const std::string& system, const RunMetrics& metrics) {
  std::printf("system:              %s\n", system.c_str());
  std::printf("requests:            %lu (%lu completed)\n",
              static_cast<unsigned long>(metrics.total_requests),
              static_cast<unsigned long>(metrics.completed_requests));
  std::printf("SLO attainment:      %.2f%%\n", metrics.SloAttainment() * 100.0);
  std::printf("TTFT mean/p50/p99:   %.3f / %.3f / %.3f s\n", Mean(metrics.ttft_samples),
              Percentile(metrics.ttft_samples, 50), Percentile(metrics.ttft_samples, 99));
  std::printf("throughput:          %.3f req/s over %.1f s\n", metrics.Throughput(),
              metrics.horizon);
  if (!metrics.switch_latency_samples.empty()) {
    std::printf("model switches:      %zu (mean %.0f ms, p99 %.0f ms)\n",
                metrics.switch_latency_samples.size(),
                Mean(metrics.switch_latency_samples) * 1000.0,
                Percentile(metrics.switch_latency_samples, 99) * 1000.0);
  }
  const LatencyBreakdown& b = metrics.breakdown;
  double total = b.Total();
  if (total > 0.0) {
    std::printf("latency breakdown:   pre-wait %.1f%% | pre-exec %.1f%% | dec-wait %.1f%% | "
                "dec-exec %.1f%% | ctl %.2f%% | data %.2f%%\n",
                100.0 * b.prefill_wait / total, 100.0 * b.prefill_exec / total,
                100.0 * b.decode_wait / total, 100.0 * b.decode_exec / total,
                100.0 * b.control_overhead / total, 100.0 * b.data_overhead / total);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    Usage();
    return 2;
  }

  GpuSpec gpu = PickGpu(opts.gpu);
  ModelRegistry registry =
      ModelRegistry::MidSizeMarket(opts.models, SloSpec::Chatbot().Scaled(opts.slo_scale));

  std::vector<ArrivalEvent> trace;
  if (!opts.trace_in.empty()) {
    std::string trace_error;
    if (!ReadTraceFile(opts.trace_in, trace, &trace_error)) {
      std::fprintf(stderr, "failed to read trace '%s': %s\n", opts.trace_in.c_str(),
                   trace_error.c_str());
      return 1;
    }
    std::printf("replaying %zu requests from %s\n", trace.size(), opts.trace_in.c_str());
  } else {
    trace = GeneratePoisson(registry, opts.rps, opts.horizon, PickDataset(opts.dataset),
                            opts.seed);
    std::printf("generated %zu requests (%d models x %.2f rps x %.0f s)\n", trace.size(),
                opts.models, opts.rps, opts.horizon);
  }
  if (!opts.trace_out.empty()) {
    if (!WriteTraceFile(opts.trace_out, trace)) {
      std::fprintf(stderr, "failed to write trace '%s'\n", opts.trace_out.c_str());
      return 1;
    }
    std::printf("trace saved to %s\n", opts.trace_out.c_str());
  }
  if (!opts.matrix_out.empty()) {
    // The planner's workload profiler, reused verbatim: the CSV a plan is
    // reproducible from (tools/aegaeon_plan consumes the same reduction).
    double horizon = opts.horizon;
    for (const ArrivalEvent& event : trace) {
      horizon = std::max(horizon, event.time);
    }
    WorkloadMatrix matrix = BuildWorkloadMatrix(trace, horizon, registry.size());
    std::ofstream csv(opts.matrix_out);
    if (!csv) {
      std::fprintf(stderr, "failed to write workload matrix '%s'\n", opts.matrix_out.c_str());
      return 1;
    }
    WriteMatrixCsv(csv, matrix);
    std::printf("workload matrix (%.3f req/s over %.0f s) written to %s\n", matrix.total_rate,
                matrix.horizon, opts.matrix_out.c_str());
  }
  if (opts.dry_run) {
    return 0;
  }

  FaultPlan fault_plan;
  std::string fault_error;
  if (!ParseFaultSpecs(opts.fault_specs, &fault_plan, &fault_error)) {
    std::fprintf(stderr, "bad fault spec: %s\n", fault_error.c_str());
    return 2;
  }
  // A dispatcher exists only in the fleet executor: a dispatcher fault (or
  // replication) promotes a single-cell run onto the fleet path.
  const bool fleet_run = opts.system == "aegaeon" &&
                         (opts.cells > 1 || opts.shards > 1 ||
                          fault_plan.HasDispatcherFault() || opts.ctrl_replicas > 1);

  if (fleet_run) {
    // Fleet path: a pool of identical Aegaeon cells behind a fleet
    // dispatcher, advanced by the sharded conservative-sync executor.
    FleetConfig config;
    config.cells = opts.cells;
    config.shards = opts.shards;
    config.dispatch_latency = opts.dispatch_latency;
    config.ctrl.replicas = opts.ctrl_replicas;
    config.cell.prefill_instances = opts.prefill;
    config.cell.decode_instances = opts.decode;
    config.cell.nodes = opts.nodes;
    config.cell.resident_models = opts.residents;
    if (!opts.timeline.empty()) {
      std::fprintf(stderr, "--timeline is not supported with --cells/--shards; ignoring\n");
    }
    ShardedFleet fleet(config, registry, gpu);
    fault_plan.ApplyTo(fleet);
    RunMetrics metrics = fleet.Run(trace);
    PrintMetrics(opts.system, metrics);
    std::printf("fleet:               %d cells x %d GPUs, %d shard(s), %lu sync epochs "
                "(%lu slots skipped)\n",
                fleet.cells(), opts.prefill + opts.decode, fleet.shards(),
                static_cast<unsigned long>(fleet.epochs()),
                static_cast<unsigned long>(fleet.epochs_skipped()));
    FleetAudit audit = fleet.audit();
    if (audit.checks > 0 || audit.sync_overruns > 0) {
      std::printf("fleet audit:         %lu checks, %lu violations, %lu sync overruns\n",
                  static_cast<unsigned long>(audit.checks),
                  static_cast<unsigned long>(audit.violations),
                  static_cast<unsigned long>(audit.sync_overruns));
    }
    if (metrics.ctrl.Any()) {
      std::printf("control plane:       %lu heartbeats, %lu elections, %lu failovers, "
                  "%lu re-dispatched, %.2f s leaderless\n",
                  static_cast<unsigned long>(metrics.ctrl.heartbeats_sent),
                  static_cast<unsigned long>(metrics.ctrl.elections),
                  static_cast<unsigned long>(metrics.ctrl.failovers),
                  static_cast<unsigned long>(metrics.ctrl.redispatched_requests),
                  metrics.ctrl.leader_downtime);
    }
    if (opts.per_model) {
      std::deque<Request> pooled;
      for (int c = 0; c < fleet.cells(); ++c) {
        const auto& cell_requests = fleet.cell(c).requests();
        pooled.insert(pooled.end(), cell_requests.begin(), cell_requests.end());
      }
      std::printf("\n");
      PrintPerModelReport(std::cout, BuildPerModelReport(pooled, registry));
    }
    if (!opts.json_out.empty()) {
      std::ofstream json(opts.json_out);
      WriteMetricsJson(json, metrics);
      std::printf("metrics JSON written to %s\n", opts.json_out.c_str());
    }
  } else if (opts.system == "aegaeon") {
    AegaeonConfig config;
    config.prefill_instances = opts.prefill;
    config.decode_instances = opts.decode;
    config.nodes = opts.nodes;
    config.resident_models = opts.residents;
    AegaeonCluster cluster(config, registry, gpu);
    fault_plan.ApplyTo(cluster);
    TimelineRecorder recorder;
    if (!opts.timeline.empty()) {
      cluster.AttachTimeline(&recorder);
    }
    RunMetrics metrics = cluster.Run(trace);
    PrintMetrics(opts.system, metrics);
    if (cluster.node_count() > 1) {
      std::printf("nodes:               %d (%lu cross-node KV migrations)\n",
                  cluster.node_count(), static_cast<unsigned long>(cluster.kv_migrations()));
    }
    if (opts.per_model) {
      std::printf("\n");
      PrintPerModelReport(std::cout, BuildPerModelReport(cluster.requests(), registry));
    }
    if (!opts.json_out.empty()) {
      std::ofstream json(opts.json_out);
      WriteMetricsJson(json, metrics);
      std::printf("metrics JSON written to %s\n", opts.json_out.c_str());
    }
    if (!opts.timeline.empty()) {
      if (recorder.WriteChromeTraceFile(opts.timeline)) {
        std::printf("timeline (%zu spans) written to %s\n", recorder.size(),
                    opts.timeline.c_str());
      } else {
        std::fprintf(stderr, "failed to write timeline '%s'\n", opts.timeline.c_str());
      }
    }
  } else if (opts.system == "sllm" || opts.system == "sllm+") {
    ServerlessLlmConfig config;
    config.gpus = opts.gpus;
    config.sjf = opts.system == "sllm+";
    ServerlessLlmCluster cluster(config, registry, gpu);
    PrintMetrics(opts.system, cluster.Run(trace));
  } else if (opts.system == "mux") {
    MuxServeConfig config;
    config.gpus = opts.gpus;
    MuxServeCluster cluster(config, registry, gpu);
    std::printf("placement: %d of %d models placed (max %d per GPU)\n", cluster.placed_models(),
                opts.models, cluster.max_models_per_gpu());
    PrintMetrics(opts.system, cluster.Run(trace));
  } else if (opts.system == "dedicated") {
    DedicatedCluster cluster(DedicatedConfig{}, registry, gpu);
    PrintMetrics(opts.system, cluster.Run(trace));
  } else if (opts.system == "unified-pf" || opts.system == "unified-df") {
    UnifiedConfig config;
    config.instances = opts.gpus;
    config.policy = opts.system == "unified-pf" ? UnifiedPolicy::kPrefillFirst
                                                : UnifiedPolicy::kDecodeFirst;
    UnifiedCluster cluster(config, registry, gpu);
    PrintMetrics(opts.system, cluster.Run(trace));
  } else {
    std::fprintf(stderr, "unknown --system '%s'\n", opts.system.c_str());
    Usage();
    return 2;
  }
  return 0;
}
