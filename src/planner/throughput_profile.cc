#include "planner/throughput_profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "core/cluster.h"
#include "model/latency_model.h"
#include "sim/parse_number.h"

namespace aegaeon {

std::string ModelClassOf(const std::string& model_name) {
  size_t hash = model_name.find('#');
  return hash == std::string::npos ? model_name : model_name.substr(0, hash);
}

AegaeonConfig PlannerConfigForGpu(const GpuSpec& gpu, int prefill_instances,
                                  int decode_instances) {
  AegaeonConfig config;
  config.prefill_instances = prefill_instances;
  config.decode_instances = decode_instances;
  // The defaults (40 GiB weights + 30 GiB KV) assume an 80 GB part. On
  // smaller GPUs shrink both regions to fit VRAM at the same ~7:4 split the
  // Figure 17 A10 configuration uses, and drop prefetch — there is no
  // headroom for a second resident model.
  if (gpu.vram_bytes < 72.0 * kGiB) {
    config.weight_buffer_bytes = 0.625 * gpu.vram_bytes;
    config.gpu_kv_bytes = 0.30 * gpu.vram_bytes;
    config.prefetch = false;
  }
  return config;
}

const ProfileEntry* ThroughputProfile::Find(const std::string& gpu,
                                            const std::string& model_class) const {
  for (const ProfileEntry& entry : entries) {
    if (entry.gpu == gpu && entry.model_class == model_class) {
      return &entry;
    }
  }
  return nullptr;
}

double ThroughputProfile::Tput(const std::string& gpu, const std::string& model_class,
                               int bucket) const {
  const ProfileEntry* entry = Find(gpu, model_class);
  if (entry == nullptr || !entry->fits) {
    return 0.0;
  }
  return entry->tput[static_cast<size_t>(bucket)];
}

double CalibratePoint(const GpuSpec& gpu, const ModelSpec& spec, int tp, const SloSpec& slo,
                      int64_t prompt_tokens, int64_t output_tokens,
                      const ProfilerOptions& options) {
  // Near-idle gate: a lone request on an otherwise idle pair must meet its
  // own deadlines, otherwise no rate can (prefill exceeds the TTFT budget,
  // or a single decode step exceeds the TBT budget).
  LatencyModel latency(gpu);
  if (latency.PrefillOne(spec, tp, prompt_tokens) > slo.ttft) {
    return 0.0;
  }
  if (latency.DecodeStep(spec, tp, prompt_tokens + output_tokens) > slo.tbt) {
    return 0.0;
  }

  // Saturated capacity: inject the whole batch of requests at t=0 and
  // measure completions over the makespan. This is the ceiling of the
  // service rate; whether a given arrival rate under it also meets the
  // SLOs is the queueing layer's question (planner/queueing.h), and the
  // closed loop (planner/planner.h) certifies the answer on the simulator.
  ModelRegistry registry;
  registry.Add(spec, tp, slo);
  std::vector<ArrivalEvent> trace;
  int requests = std::max(8, options.requests_per_run);
  trace.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    ArrivalEvent event;
    event.time = 0.0;
    event.model = 0;
    event.prompt_tokens = prompt_tokens;
    event.output_tokens = output_tokens;
    trace.push_back(event);
  }
  AegaeonConfig config = PlannerConfigForGpu(gpu, 1, 1);
  config.instance_tp = tp;
  AegaeonCluster cluster(config, registry, gpu);
  RunMetrics metrics = cluster.Run(trace);
  if (metrics.completed_requests == 0 || metrics.horizon <= 0.0) {
    return 0.0;
  }
  double pair_rate = static_cast<double>(metrics.completed_requests) / metrics.horizon;
  // The pair holds 2 instances of `tp` GPUs each; report per-GPU capacity.
  return pair_rate / (2.0 * tp);
}

ThroughputProfile ProfileThroughput(const std::vector<GpuSpec>& gpus,
                                    const ModelRegistry& registry, const WorkloadMatrix& matrix,
                                    const ProfilerOptions& options) {
  ThroughputProfile profile;
  profile.grid = matrix.grid;
  profile.target_attainment = options.target_attainment;

  // Model classes present in the registry, with their representative spec
  // and the strictest SLO among members (plans must hold for the tightest
  // tenant of the class).
  struct ClassInfo {
    ModelSpec spec;
    int tp = 1;
    SloSpec slo;
    std::vector<double> bucket_rate;  // class-aggregated load per bucket
  };
  std::map<std::string, ClassInfo> classes;
  for (const DeployedModel& model : registry.models()) {
    std::string key = ModelClassOf(model.spec.name);
    auto [it, inserted] = classes.try_emplace(key);
    ClassInfo& info = it->second;
    if (inserted) {
      info.spec = model.spec;
      info.spec.name = key;
      info.tp = model.tp;
      info.slo = model.slo;
      info.bucket_rate.assign(static_cast<size_t>(matrix.grid.buckets()), 0.0);
    } else {
      info.slo.ttft = std::min(info.slo.ttft, model.slo.ttft);
      info.slo.tbt = std::min(info.slo.tbt, model.slo.tbt);
    }
    if (model.id < matrix.model_bucket_rate.size()) {
      const std::vector<double>& rates = matrix.model_bucket_rate[model.id];
      for (size_t b = 0; b < rates.size(); ++b) {
        info.bucket_rate[b] += rates[b];
      }
    }
  }

  for (const GpuSpec& gpu : gpus) {
    AegaeonConfig sizing = PlannerConfigForGpu(gpu, 1, 1);
    for (const auto& [key, info] : classes) {
      ProfileEntry entry;
      entry.gpu = gpu.name;
      entry.model_class = key;
      entry.fits = info.spec.weight_bytes() / info.tp <= sizing.weight_buffer_bytes;
      entry.tput.assign(static_cast<size_t>(matrix.grid.buckets()), ProfileEntry::kUnprofiled);
      if (entry.fits) {
        for (int bucket = 0; bucket < matrix.grid.buckets(); ++bucket) {
          if (info.bucket_rate[static_cast<size_t>(bucket)] <= 0.0) {
            continue;  // no load here; leave unprofiled
          }
          entry.tput[static_cast<size_t>(bucket)] =
              CalibratePoint(gpu, info.spec, info.tp, info.slo, matrix.PromptRepOf(bucket),
                             matrix.OutputRepOf(bucket), options);
        }
      }
      profile.entries.push_back(std::move(entry));
    }
  }
  return profile;
}

// --- JSON cache ------------------------------------------------------------
//
// The writer emits a fixed schema and the reader parses exactly that schema
// (no external JSON dependency). Doubles are printed with %.17g, so a cache
// round trip feeds the solver bit-identical numbers.

namespace {

void WriteDouble(std::ostream& os, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  os << buffer;
}

void WriteEdgeArray(std::ostream& os, const std::vector<int64_t>& edges) {
  os << '[';
  for (size_t i = 0; i < edges.size(); ++i) {
    os << (i == 0 ? "" : ",") << edges[i];
  }
  os << ']';
}

// Scanner over the emitted schema: locates "key": after `from` and parses
// the value. Returns std::string::npos on failure.
size_t FindKey(const std::string& text, const std::string& key, size_t from) {
  std::string needle = "\"" + key + "\":";
  size_t at = text.find(needle, from);
  return at == std::string::npos ? std::string::npos : at + needle.size();
}

// Parses the scalar that starts at `at` and runs to the next ',', '}' or
// ']' (or the end of `text`), ignoring surrounding blanks.
template <typename T>
bool ParseValue(const std::string& text, size_t at, T* out) {
  size_t stop = std::min(text.find_first_of(",}]", at), text.size());
  size_t first = text.find_first_not_of(" \t\n", at);
  if (first == std::string::npos || first >= stop) {
    return false;
  }
  size_t last = text.find_last_not_of(" \t\n", stop - 1);
  return ParseNumber(std::string_view(text).substr(first, last + 1 - first), out);
}

bool ParseDoubleArray(const std::string& text, size_t at, std::vector<double>& out,
                      size_t* end) {
  out.clear();
  size_t open = text.find('[', at);
  size_t close = text.find(']', open);
  if (open == std::string::npos || close == std::string::npos) {
    return false;
  }
  std::string body = text.substr(open + 1, close - open - 1);
  std::istringstream is(body);
  std::string token;
  while (std::getline(is, token, ',')) {
    if (token.find_first_not_of(" \t\n") == std::string::npos) {
      continue;
    }
    double value = 0.0;
    if (!ParseValue(token, 0, &value)) {
      return false;
    }
    out.push_back(value);
  }
  *end = close + 1;
  return true;
}

bool ParseString(const std::string& text, size_t at, std::string& out) {
  size_t open = text.find('"', at);
  size_t close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) {
    return false;
  }
  out = text.substr(open + 1, close - open - 1);
  return true;
}

}  // namespace

void WriteProfileJson(std::ostream& os, const ThroughputProfile& profile) {
  os << "{\n  \"version\": 1,\n  \"target_attainment\": ";
  WriteDouble(os, profile.target_attainment);
  os << ",\n  \"input_edges\": ";
  WriteEdgeArray(os, profile.grid.input_edges);
  os << ",\n  \"output_edges\": ";
  WriteEdgeArray(os, profile.grid.output_edges);
  os << ",\n  \"entries\": [\n";
  for (size_t i = 0; i < profile.entries.size(); ++i) {
    const ProfileEntry& entry = profile.entries[i];
    os << "    {\"gpu\": \"" << entry.gpu << "\", \"class\": \"" << entry.model_class
       << "\", \"fits\": " << (entry.fits ? "true" : "false") << ", \"tput\": [";
    for (size_t b = 0; b < entry.tput.size(); ++b) {
      os << (b == 0 ? "" : ",");
      WriteDouble(os, entry.tput[b]);
    }
    os << "]}" << (i + 1 < profile.entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

bool ReadProfileJson(std::istream& is, ThroughputProfile& profile) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string text = buffer.str();
  profile = ThroughputProfile{};

  size_t at = FindKey(text, "version", 0);
  int version = 0;
  if (at == std::string::npos || !ParseValue(text, at, &version) || version != 1) {
    return false;
  }
  at = FindKey(text, "target_attainment", 0);
  if (at == std::string::npos || !ParseValue(text, at, &profile.target_attainment)) {
    return false;
  }

  std::vector<double> edges;
  size_t end = 0;
  at = FindKey(text, "input_edges", 0);
  if (at == std::string::npos || !ParseDoubleArray(text, at, edges, &end)) {
    return false;
  }
  for (double edge : edges) {
    profile.grid.input_edges.push_back(static_cast<int64_t>(edge));
  }
  at = FindKey(text, "output_edges", 0);
  if (at == std::string::npos || !ParseDoubleArray(text, at, edges, &end)) {
    return false;
  }
  for (double edge : edges) {
    profile.grid.output_edges.push_back(static_cast<int64_t>(edge));
  }

  size_t cursor = FindKey(text, "entries", 0);
  if (cursor == std::string::npos) {
    return false;
  }
  while ((at = FindKey(text, "gpu", cursor)) != std::string::npos) {
    ProfileEntry entry;
    if (!ParseString(text, at, entry.gpu)) {
      return false;
    }
    at = FindKey(text, "class", at);
    if (at == std::string::npos || !ParseString(text, at, entry.model_class)) {
      return false;
    }
    at = FindKey(text, "fits", at);
    if (at == std::string::npos) {
      return false;
    }
    at = text.find_first_not_of(" \t\n", at);
    entry.fits = at != std::string::npos && text.compare(at, 4, "true") == 0;
    at = FindKey(text, "tput", at);
    if (at == std::string::npos || !ParseDoubleArray(text, at, entry.tput, &end)) {
      return false;
    }
    if (entry.tput.size() != static_cast<size_t>(profile.grid.buckets())) {
      return false;
    }
    profile.entries.push_back(std::move(entry));
    cursor = end;
  }
  return true;
}

bool SaveProfileJson(const std::string& path, const ThroughputProfile& profile) {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  WriteProfileJson(file, profile);
  return static_cast<bool>(file);
}

bool LoadProfileJson(const std::string& path, const BucketGrid& expected_grid,
                     ThroughputProfile& profile) {
  std::ifstream file(path);
  if (!file) {
    return false;
  }
  if (!ReadProfileJson(file, profile)) {
    return false;
  }
  return profile.grid == expected_grid;
}

}  // namespace aegaeon
