// perfbench runner: runs one workload for a fixed host-time budget and
// prints its metrics, ending with one JSON line.
//
//   aegaeon_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-dir <dir>]
//
// The first repetition serves every rate of the workload; later ones serve
// only the rates the host-time metrics cover (WorkloadSpec::time_every_rate),
// since the simulated results are deterministic.
//
// --trace 0 repeats the workload untraced and reports the end-to-end
// metrics: setup_s is the median over the repetitions, and sim_speed is the
// simulated makespan over the loop time, both summed over the repetitions.
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer metrics, the per-layer self times from the spans, and the
// tracing overhead (traced minus untraced loop time); the last traced
// repetition's spans are written to <dir>/<workload>-seed<n>.json. Any
// failed correctness check exits 1 without printing metrics.

#include <sys/resource.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "span_trace.h"
#include "workloads.h"

namespace {

using perfbench::Clock;
using perfbench::LayerCounters;
using perfbench::SystemResult;
using perfbench::WorkloadResult;

// Repetitions run even when the time budget is already spent, so every
// host-time median has a few samples.
constexpr int kMinRepetitions = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  long seconds = 0;
  long trace = -1;
  std::string trace_dir = ".";
};

bool ParseUnsigned(const char* text, uint64_t max, uint64_t* out) {
  if (text[0] < '0' || text[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool seen_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = flag + " needs a value";
      return false;
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, UINT64_MAX, &args->seed)) {
        *error = std::string("--seed: not a whole number: ") + value;
        return false;
      }
      seen_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, 3600, &number) || number < 1) {
        *error = std::string("--seconds: expected 1..3600, got ") + value;
        return false;
      }
      args->seconds = static_cast<long>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, 1, &number)) {
        *error = std::string("--trace: expected 0 or 1, got ") + value;
        return false;
      }
      args->trace = static_cast<long>(number);
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty() || !seen_seed || args->seconds == 0 || args->trace < 0) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

double Median(std::vector<double> values) { return aegaeon::Percentile(std::move(values), 50.0); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Host-time numbers of one repetition, summed over its timed ladder points.
struct HostSample {
  perfbench::HostTimes host;
  perfbench::FleetHost fleet;
  double makespan = 0.0;
  std::map<std::string, double> self;  // per-layer self time (traced only)
};

HostSample Sample(const WorkloadResult& result, const perfbench::SpanTrace& spans) {
  HostSample s;
  for (size_t i = 0; i < result.points.size(); ++i) {
    if (result.Timed(i)) {
      s.host += result.points[i].host;
      s.fleet += result.points[i].fleet_host;
      s.makespan += result.points[i].makespan_sum;
    }
  }
  if (spans.enabled()) {
    s.self = spans.LayerSelfSeconds();
  }
  return s;
}

template <typename Field>
double MedianOf(const std::vector<HostSample>& samples, Field field) {
  std::vector<double> values;
  for (const HostSample& s : samples) {
    values.push_back(field(s));
  }
  return Median(std::move(values));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::vector<Metric> EndToEnd(const WorkloadResult& result, const std::vector<HostSample>& host) {
  const SystemResult& p = result.Primary();
  const aegaeon::RunMetrics& m = p.metrics;
  double makespan = 0.0;
  double run = 0.0;
  for (const HostSample& s : host) {
    makespan += s.makespan;
    run += s.host.Run();
  }
  return {
      {"setup_s", MedianOf(host, [](const HostSample& s) { return s.host.Setup(); }), "s"},
      {"sim_speed", Ratio(makespan, run), "sim-s/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"slo_attainment", m.SloAttainment(), "fraction"},
      {"goodput_rps", p.Goodput(), "req/s"},
      {"ttft_p50_s", aegaeon::Percentile(m.ttft_samples, 50.0), "s"},
      {"ttft_p99_s", aegaeon::Percentile(m.ttft_samples, 99.0), "s"},
      {"tpot_p99_s", p.TpotP99(), "s"},
      {"served_ratio", Ratio(p.outcomes.completed, p.outcomes.attempted), "fraction"},
      {"rate_at_slo", result.rate_at_slo, "req/s/model"},
  };
}

std::vector<Metric> PerLayer(bool fleet, const WorkloadResult& result,
                             const std::vector<HostSample>& traced,
                             const std::vector<HostSample>& untraced, size_t spans) {
  const SystemResult& p = result.Primary();
  const LayerCounters& c = p.layers;
  const aegaeon::RunMetrics& m = p.metrics;
  uint64_t events = 0;
  uint64_t routes = 0;
  for (size_t i = 0; i < result.points.size(); ++i) {
    if (result.Timed(i)) {
      events += result.points[i].layers.events;
      routes += result.points[i].layers.routes;
    }
  }
  auto host = [&traced](double perfbench::HostTimes::*field) {
    return MedianOf(traced, [field](const HostSample& s) { return s.host.*field; });
  };
  auto loop = [&traced](double perfbench::FleetHost::*field) {
    return MedianOf(traced, [field](const HostSample& s) { return s.fleet.*field; });
  };
  const double run = MedianOf(traced, [](const HostSample& s) { return s.host.Run(); });
  const double untraced_run =
      MedianOf(untraced, [](const HostSample& s) { return s.host.Run(); });
  // A fleet's constructor and warm are fleet.*; the cell constructors inside
  // them are not visible from outside the program, so core.* reads 0 there.
  const double cell_ctor = fleet ? 0.0 : host(&perfbench::HostTimes::ctor);
  const double cell_begin = fleet ? 0.0 : host(&perfbench::HostTimes::begin);
  const double fleet_ctor = fleet ? host(&perfbench::HostTimes::ctor) : 0.0;
  const double fleet_warm = fleet ? host(&perfbench::HostTimes::begin) : 0.0;
  auto self = [&traced](const char* layer) {
    return MedianOf(traced, [layer](const HostSample& s) {
      auto it = s.self.find(layer);
      return it == s.self.end() ? 0.0 : it->second;
    });
  };
  const double dispatched = static_cast<double>(c.dispatched);
  const double route_s = loop(&perfbench::FleetHost::route);
  return {
      {"sim.events", static_cast<double>(events), "count"},
      {"sim.host_us_per_event", Ratio(run * 1e6, events), "us"},
      {"sim.inject_s", host(&perfbench::HostTimes::inject), "s"},
      {"core.cluster_ctor_s", cell_ctor, "s"},
      {"core.begin_run_s", cell_begin, "s"},
      {"core.loop_s", host(&perfbench::HostTimes::loop), "s"},
      {"core.finish_s", host(&perfbench::HostTimes::finish), "s"},
      {"core.requests", static_cast<double>(p.outcomes.attempted), "count"},
      {"core.dispatched", dispatched, "count"},
      {"core.prefill_wait_mean_s", Ratio(c.prefill_wait, dispatched), "s"},
      {"core.decode_wait_mean_s", Ratio(c.decode_wait, dispatched), "s"},
      {"core.control_overhead_s", Ratio(c.control_overhead, dispatched), "s"},
      {"core.data_overhead_s", Ratio(c.data_overhead, dispatched), "s"},
      {"engine.switches", static_cast<double>(c.switches), "count"},
      {"engine.switch_mean_s", Ratio(c.switch_seconds, c.switches), "s"},
      {"engine.prefetch_issued", static_cast<double>(c.prefetch_issued), "count"},
      {"engine.prefetch_hit_ratio", Ratio(c.prefetch_hits, c.prefetch_issued), "fraction"},
      {"mem.model_cache_lookups", static_cast<double>(c.cache_hits + c.cache_misses), "count"},
      {"mem.model_cache_hit_ratio", Ratio(c.cache_hits, c.cache_hits + c.cache_misses),
       "fraction"},
      {"mem.model_cache_evictions", static_cast<double>(c.cache_evictions), "count"},
      {"mem.ssd_hits", static_cast<double>(c.ssd_hits), "count"},
      {"mem.kv_fragmentation",
       Ratio(static_cast<double>(c.kv_peak_held_bytes - c.kv_used_at_peak), c.kv_peak_held_bytes),
       "fraction"},
      {"mem.slabs_held", static_cast<double>(c.kv_peak_slabs), "count"},
      {"kv.swap_outs", static_cast<double>(c.swap_outs), "count"},
      {"kv.swap_ins", static_cast<double>(c.swap_ins), "count"},
      {"kv.bytes_moved_gb", c.bytes_moved / 1e9, "GB"},
      {"kv.swaps_per_request", Ratio(c.swap_outs + c.swap_ins, dispatched), "count/req"},
      {"kv.move_list_peak", static_cast<double>(c.move_list_peak), "count"},
      {"kv.deferred_frees", static_cast<double>(c.deferred_frees), "count"},
      {"hw.gpus", static_cast<double>(c.gpus), "count"},
      {"hw.gpu_busy_ratio", Ratio(c.gpu_busy_seconds, c.gpu_seconds), "fraction"},
      {"serve.arrivals", static_cast<double>(c.proxy_arrivals), "count"},
      {"serve.admitted_ratio", Ratio(c.proxy_dispatched, c.proxy_arrivals), "fraction"},
      {"serve.rejected", static_cast<double>(p.outcomes.rejected), "count"},
      {"serve.shed", static_cast<double>(p.outcomes.shed), "count"},
      {"serve.timed_out", static_cast<double>(p.outcomes.timed_out), "count"},
      {"serve.retries", static_cast<double>(c.proxy_retries), "count"},
      {"serve.degraded", static_cast<double>(c.proxy_degraded), "count"},
      {"ctrl.routes", static_cast<double>(c.routes), "count"},
      {"ctrl.route_s", route_s, "s"},
      {"ctrl.route_us_per_call", Ratio(route_s * 1e6, routes), "us"},
      {"ctrl.heartbeats", static_cast<double>(m.ctrl.heartbeats_sent), "count"},
      {"ctrl.elections", static_cast<double>(m.ctrl.elections), "count"},
      {"ctrl.failovers", static_cast<double>(m.ctrl.failovers), "count"},
      {"ctrl.redispatched", static_cast<double>(m.ctrl.redispatched_requests), "count"},
      {"ctrl.leader_downtime_s", m.ctrl.leader_downtime, "s"},
      {"fleet.ctor_s", fleet_ctor, "s"},
      {"fleet.warm_s", fleet_warm, "s"},
      {"fleet.epochs", static_cast<double>(c.epochs), "count"},
      {"fleet.epochs_skipped", static_cast<double>(c.epochs_skipped), "count"},
      {"fleet.idle_shard_skips", static_cast<double>(c.idle_shard_skips), "count"},
      {"fleet.shard_advance_s", loop(&perfbench::FleetHost::shard_advance), "s"},
      {"fleet.barrier_wait_s", loop(&perfbench::FleetHost::barrier_wait), "s"},
      {"fleet.serial_s", loop(&perfbench::FleetHost::serial), "s"},
      {"bench.self_s", self("bench"), "s"},
      {"core.self_s", self("core"), "s"},
      {"fleet.self_s", self("fleet"), "s"},
      {"sim.self_s", self("sim"), "s"},
      {"ctrl.self_s", self("ctrl"), "s"},
      {"analysis.self_s", self("analysis"), "s"},
      {"trace.spans", static_cast<double>(spans), "count"},
      {"trace.overhead_s", run - untraced_run, "s"},
  };
}

void PrintRuns(const perfbench::WorkloadSpec& spec, const WorkloadResult& result) {
  std::printf("%-6s %9s %9s %9s %9s %9s %8s %9s %11s  %s\n", "rate", "attempted", "served",
              "failed", "rejected", "timed_out", "shed", "attain", "makespan_s", "backlog");
  for (const SystemResult& point : result.points) {
    const perfbench::Outcomes& o = point.outcomes;
    std::printf("%-6.2f %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                " %8" PRIu64 " %9.4f %11.1f  %s%s\n",
                point.rate, o.attempted, o.completed, o.failed(), o.rejected, o.timed_out,
                o.shed, point.metrics.SloAttainment(), point.makespan_sum,
                point.BacklogGrowing() ? "growing" : "stable",
                &point == &result.Primary() ? "  (primary)" : "");
  }
  const SystemResult& p = result.Primary();
  std::printf("replicas per rate: %d (independent traces, pooled)\n", spec.replicas);
  std::printf("samples: ttft %zu, tpot %zu (primary rate)\n", p.metrics.ttft_samples.size(),
              p.tpot.size());
  std::printf("arrivals: open-loop %s schedule in simulated time over %.0f s; every arrival is "
              "injected at its simulated timestamp, so the generator is never late "
              "(lateness 0 s)\n",
              spec.bursty ? "MMPP" : "Poisson", spec.horizon);
  std::printf("digest: %016" PRIx64 "\n", result.digest);
}

void PrintJson(const WorkloadResult& result, const std::vector<Metric>& metrics) {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const SystemResult& sys : result.points) {
    attempted += sys.outcomes.attempted;
    failed += sys.outcomes.failed();
  }
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "aegaeon_perfbench: %s\n", error.c_str());
    return 2;
  }
  perfbench::WorkloadSpec spec;
  if (!perfbench::MakeWorkload(args.workload, &spec)) {
    std::string known;
    for (const std::string& name : perfbench::WorkloadNames()) {
      known += " " + name;
    }
    std::fprintf(stderr, "aegaeon_perfbench: unknown workload '%s' (known:%s)\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }
  const bool tracing = args.trace == 1;
  std::printf("perfbench: workload %s, seed %" PRIu64 ", %ld s, trace %d\n", spec.name.c_str(),
              args.seed, args.seconds, tracing ? 1 : 0);

  const aegaeon::ModelRegistry registry = perfbench::MakeRegistry(spec);
  const auto traces = perfbench::GenerateTraces(spec, registry, args.seed);

  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(args.seconds);
  WorkloadResult first;
  std::vector<HostSample> untraced;
  std::vector<HostSample> traced;
  perfbench::SpanTrace last_spans(true);
  std::vector<std::string> violations;
  double last_rep_seconds = 0.0;
  for (int rep = 0;; ++rep) {
    const bool traced_rep = tracing && rep % 2 == 1;
    const bool enough = untraced.size() >= kMinRepetitions &&
                        (!tracing || traced.size() >= kMinRepetitions);
    // Stop when another repetition like the last would overrun the budget.
    const Clock::time_point rep_start = Clock::now();
    if (enough && rep_start + std::chrono::duration<double>(last_rep_seconds) > deadline) {
      break;
    }
    perfbench::SpanTrace spans(traced_rep);
    perfbench::RunOptions options;
    options.trace = &spans;
    options.timed_rates_only = rep > 0;
    WorkloadResult result = perfbench::RunWorkload(spec, registry, traces, options);
    violations.insert(violations.end(), result.violations.begin(), result.violations.end());
    for (size_t i = 0; rep > 0 && i < result.points.size(); ++i) {
      if (result.Timed(i) && result.points[i].digest != first.points[i].digest) {
        violations.push_back("repetition " + std::to_string(rep) + " diverged from the first at " +
                             std::to_string(spec.rates[i]) +
                             " (simulated behaviour is not deterministic)");
      }
    }
    if (!violations.empty()) {
      break;
    }
    last_rep_seconds = perfbench::Seconds(rep_start, Clock::now());
    (traced_rep ? traced : untraced).push_back(Sample(result, spans));
    if (traced_rep) {
      last_spans = std::move(spans);
    }
    if (rep == 0) {
      first = std::move(result);
    }
  }
  if (!violations.empty()) {
    for (const std::string& v : violations) {
      std::fprintf(stderr, "perfbench: correctness check failed: %s\n", v.c_str());
    }
    return 1;
  }

  PrintRuns(spec, first);
  std::vector<Metric> metrics;
  if (tracing) {
    metrics = PerLayer(spec.fleet, first, traced, untraced, last_spans.spans().size());
    const std::string path =
        args.trace_dir + "/" + spec.name + "-seed" + std::to_string(args.seed) + ".json";
    if (!last_spans.WriteJson(path)) {
      std::fprintf(stderr, "perfbench: cannot write span dump %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu from the last traced repetition written to %s\n",
                last_spans.spans().size(), path.c_str());
  } else {
    metrics = EndToEnd(first, untraced);
  }
  std::printf("repetitions: %zu untraced, %zu traced\n", untraced.size(), traced.size());
  std::printf("untraced set-up / loop seconds per repetition:");
  for (const HostSample& s : untraced) {
    std::printf(" %.4f/%.4f", s.host.Setup(), s.host.Run());
  }
  std::printf("\n");
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit);
  }
  PrintJson(first, metrics);
  return 0;
}
