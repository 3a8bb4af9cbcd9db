// aegaeon_plan — capacity planner CLI (src/planner).
//
// Profiles a workload (generated or replayed), calibrates per-GPU
// throughput, solves for the cheapest heterogeneous GPU pool meeting the
// token-level SLOs, and certifies the plan by replaying the trace on the
// simulator. Examples:
//
//   aegaeon_plan --models 24 --rps 0.05 --horizon 600
//   aegaeon_plan --trace-in workload.csv --gpus h800,a10 --target 0.95
//   aegaeon_plan --models 24 --rps 0.05 --compare-homogeneous --json plan.json

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"
#include "sim/parse_number.h"
#include "planner/planner.h"
#include "workload/dataset.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace {

using namespace aegaeon;

struct Options {
  int models = 24;
  double rps = 0.05;
  double horizon = 600.0;
  std::string gpus = "h800,h20,a10,a100";
  int max_count = 64;
  double target = 0.90;
  double zipf = 0.0;
  int rounds = 5;
  double slo_scale = 1.0;
  std::string dataset = "sharegpt";
  uint64_t seed = 2025;
  std::string trace_in;
  std::string profile_cache;
  std::string matrix_out;
  std::string json_out;
  bool compare_homogeneous = false;
};

void Usage() {
  std::printf(
      "usage: aegaeon_plan [options]\n"
      "  --models N        models in the market (default 24)\n"
      "  --rps R           per-model Poisson rate (default 0.05)\n"
      "  --zipf S          skew popularity: Zipf(S) over models at a total\n"
      "                    rate of N*R req/s (default 0 = uniform)\n"
      "  --horizon T       trace length in seconds (default 600)\n"
      "  --gpus LIST       comma list of h800|h20|a10|a100 (default all four)\n"
      "  --max-count N     per-type GPU ceiling (default 64)\n"
      "  --target A        SLO attainment target in [0,1] (default 0.90)\n"
      "  --rounds N        max closed-loop rounds (default 5)\n"
      "  --slo-scale X     scale TTFT/TBT targets (default 1.0)\n"
      "  --dataset D       sharegpt|sharegpt-ix2|sharegpt-ox2|summarize, or\n"
      "                    mixed = chat/summarize services alternating by\n"
      "                    model id (default sharegpt)\n"
      "  --seed S          workload seed (default 2025)\n"
      "  --trace-in F      plan for a replayed CSV trace instead\n"
      "  --profile-cache F JSON throughput-profile cache (reused when valid)\n"
      "  --dump-workload-matrix F  write the profiled matrix as CSV\n"
      "  --compare-homogeneous     also search min homogeneous pools per GPU\n"
      "  --json F          write the certified plan as JSON\n");
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
  std::fprintf(stderr, "unknown GPU '%s'\n", name.c_str());
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
  if (name == "summarize") {
    return Dataset::Summarize();
  }
  std::fprintf(stderr, "unknown --dataset '%s'\n", name.c_str());
  std::exit(2);
}

std::vector<std::string> SplitCsv(const std::string& list) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      comma = list.size();
    }
    if (comma > start) {
      parts.push_back(list.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return parts;
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
    } else if (arg == "--models") {
      number("--models", &opts.models);
    } else if (arg == "--rps") {
      number("--rps", &opts.rps);
    } else if (arg == "--horizon") {
      number("--horizon", &opts.horizon);
    } else if (arg == "--gpus") {
      opts.gpus = next("--gpus");
    } else if (arg == "--max-count") {
      number("--max-count", &opts.max_count);
    } else if (arg == "--target") {
      number("--target", &opts.target);
    } else if (arg == "--zipf") {
      number("--zipf", &opts.zipf);
    } else if (arg == "--rounds") {
      number("--rounds", &opts.rounds);
    } else if (arg == "--slo-scale") {
      number("--slo-scale", &opts.slo_scale);
    } else if (arg == "--dataset") {
      opts.dataset = next("--dataset");
    } else if (arg == "--seed") {
      number("--seed", &opts.seed);
    } else if (arg == "--trace-in") {
      opts.trace_in = next("--trace-in");
    } else if (arg == "--profile-cache") {
      opts.profile_cache = next("--profile-cache");
    } else if (arg == "--dump-workload-matrix") {
      opts.matrix_out = next("--dump-workload-matrix");
    } else if (arg == "--compare-homogeneous") {
      opts.compare_homogeneous = true;
    } else if (arg == "--json") {
      opts.json_out = next("--json");
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opts.models <= 0 || opts.rps <= 0.0 || opts.horizon <= 0.0) {
    std::fprintf(stderr, "--models, --rps, and --horizon must be positive\n");
    return false;
  }
  if (opts.target <= 0.0 || opts.target > 1.0) {
    std::fprintf(stderr, "--target must be in (0, 1]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    Usage();
    return 2;
  }

  std::vector<GpuOption> options;
  for (const std::string& name : SplitCsv(opts.gpus)) {
    GpuOption option;
    option.spec = PickGpu(name);
    option.max_count = opts.max_count;
    options.push_back(option);
  }
  if (options.empty()) {
    std::fprintf(stderr, "--gpus selected no GPU types\n");
    return 2;
  }

  ModelRegistry registry =
      ModelRegistry::MidSizeMarket(opts.models, SloSpec::Chatbot().Scaled(opts.slo_scale));

  std::vector<ArrivalEvent> trace;
  double horizon = opts.horizon;
  if (!opts.trace_in.empty()) {
    std::string trace_error;
    if (!ReadTraceFile(opts.trace_in, trace, &trace_error)) {
      std::fprintf(stderr, "failed to read trace '%s': %s\n", opts.trace_in.c_str(),
                   trace_error.c_str());
      return 1;
    }
    for (const ArrivalEvent& event : trace) {
      horizon = std::max(horizon, event.time);
    }
    std::printf("planning for %zu replayed requests from %s\n", trace.size(),
                opts.trace_in.c_str());
  } else if (opts.dataset == "mixed") {
    trace = GenerateMixedPoisson(registry, opts.rps, opts.horizon, Dataset::ShareGpt(),
                                 Dataset::Summarize(), opts.seed);
    std::printf(
        "planning for %zu generated requests (%d models x %.3f rps x %.0f s, chat+summarize)\n",
        trace.size(), opts.models, opts.rps, opts.horizon);
  } else if (opts.zipf > 0.0) {
    trace = GenerateSkewed(registry, opts.models * opts.rps, opts.zipf, opts.horizon,
                           PickDataset(opts.dataset), opts.seed);
    std::printf(
        "planning for %zu generated requests (%d models, Zipf %.2f, %.3f req/s x %.0f s)\n",
        trace.size(), opts.models, opts.zipf, opts.models * opts.rps, opts.horizon);
  } else {
    trace = GeneratePoisson(registry, opts.rps, opts.horizon, PickDataset(opts.dataset),
                            opts.seed);
    std::printf("planning for %zu generated requests (%d models x %.3f rps x %.0f s)\n",
                trace.size(), opts.models, opts.rps, opts.horizon);
  }

  Planner planner(registry, options);
  PlannerOptions planner_options;
  planner_options.target_attainment = opts.target;
  planner_options.max_rounds = opts.rounds;
  planner_options.profile_cache = opts.profile_cache;

  CertifiedPlan result = planner.Solve(trace, horizon, planner_options);

  if (!opts.matrix_out.empty()) {
    std::ofstream csv(opts.matrix_out);
    WriteMatrixCsv(csv, result.matrix);
    std::printf("workload matrix written to %s\n", opts.matrix_out.c_str());
  }

  std::printf("workload:            %.3f req/s over %.0f s, %d x %d size buckets\n",
              result.matrix.total_rate, result.matrix.horizon, result.matrix.grid.inputs(),
              result.matrix.grid.outputs());
  std::printf("throughput profile:  %zu (gpu, class) entries%s\n", result.profile.entries.size(),
              result.profile_from_cache ? " (from cache)" : "");
  for (const std::string& note : result.plan.eliminated) {
    std::printf("solver:              %s\n", note.c_str());
  }

  if (!result.plan.feasible) {
    std::printf("INFEASIBLE: %s\n", result.plan.infeasible_reason.c_str());
    return 1;
  }

  for (size_t i = 0; i < result.rounds.size(); ++i) {
    const PlannerRound& round = result.rounds[i];
    std::printf("round %zu:             $%.2f/h, replay attainment %.2f%%%s\n", i + 1,
                round.plan.cost_per_hour, round.merged.SloAttainment() * 100.0,
                round.certified ? " (certified)" : "");
  }

  std::printf("plan %s:\n", result.certified ? "(simulator-certified)" : "(NOT certified)");
  for (const SubpoolPlan& sub : result.plan.subpools) {
    const GpuSpec& spec = options[sub.option].spec;
    std::printf("  %-10s x%-3d  (%d prefill + %d decode)  %.3f req/s  util %.0f%%  $%.2f/h\n",
                spec.name.c_str(), sub.gpus, sub.prefill, sub.decode, sub.assigned_rate,
                sub.utilization * 100.0, sub.gpus * spec.cost_per_hour);
  }
  std::printf("total:               $%.2f/hour, replay attainment %.2f%% (target %.0f%%)\n",
              result.plan.cost_per_hour, result.replay.SloAttainment() * 100.0,
              opts.target * 100.0);
  if (result.replay.CostPer1kTokens() > 0.0) {
    std::printf("serving cost:        $%.4f per 1k generated tokens\n",
                result.replay.CostPer1kTokens());
  }

  struct HomogeneousResult {
    std::string gpu;
    int gpus = -1;
    double cost = 0.0;
    double attainment = 0.0;
  };
  std::vector<HomogeneousResult> homogeneous;
  if (opts.compare_homogeneous) {
    for (const GpuOption& option : options) {
      HomogeneousResult h;
      h.gpu = option.spec.name;
      h.gpus = Planner::MinHomogeneousGpus(registry, option.spec, trace, opts.target,
                                           option.max_count);
      if (h.gpus > 0) {
        RunMetrics metrics = Planner::ReplayHomogeneous(registry, option.spec, h.gpus, trace);
        h.cost = h.gpus * option.spec.cost_per_hour;
        h.attainment = metrics.SloAttainment();
        std::printf("homogeneous %-10s x%-3d  $%.2f/h  attainment %.2f%%\n", h.gpu.c_str(),
                    h.gpus, h.cost, h.attainment * 100.0);
      } else {
        std::printf("homogeneous %-10s infeasible (model does not fit or exceeds max count)\n",
                    h.gpu.c_str());
      }
      homogeneous.push_back(h);
    }
  }

  if (!opts.json_out.empty()) {
    std::ofstream json(opts.json_out);
    json.precision(6);
    json << "{\"certified\":" << (result.certified ? "true" : "false")
         << ",\"cost_per_hour\":" << result.plan.cost_per_hour
         << ",\"attainment\":" << result.replay.SloAttainment()
         << ",\"cost_per_1k_tokens\":" << result.replay.CostPer1kTokens()
         << ",\"rounds\":" << result.rounds.size() << ",\"pool\":[";
    for (size_t i = 0; i < result.plan.subpools.size(); ++i) {
      const SubpoolPlan& sub = result.plan.subpools[i];
      json << (i == 0 ? "" : ",") << "{\"gpu\":\"" << options[sub.option].spec.name
           << "\",\"count\":" << sub.gpus << "}";
    }
    json << "]";
    if (!homogeneous.empty()) {
      json << ",\"homogeneous\":[";
      for (size_t i = 0; i < homogeneous.size(); ++i) {
        json << (i == 0 ? "" : ",") << "{\"gpu\":\"" << homogeneous[i].gpu
             << "\",\"count\":" << homogeneous[i].gpus << ",\"cost_per_hour\":"
             << homogeneous[i].cost << ",\"attainment\":" << homogeneous[i].attainment << "}";
      }
      json << "]";
    }
    json << "}";
    std::printf("plan JSON written to %s\n", opts.json_out.c_str());
  }
  return result.certified ? 0 : 1;
}
