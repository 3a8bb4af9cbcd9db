#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

uint32_t SpanTrace::Reserve(const char* name, uint32_t parent) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = name;
  spans_.push_back(span);
  return span.id;
}

void SpanTrace::SetTimes(uint32_t id, Clock::time_point start, Clock::time_point end) {
  if (id == 0) {
    return;
  }
  Span& span = spans_[id - 1];
  span.start = start;
  span.end = end;
}

uint32_t SpanTrace::Add(const char* name, uint32_t parent, Clock::time_point start,
                        Clock::time_point end) {
  const uint32_t id = Reserve(name, parent);
  SetTimes(id, start, end);
  return id;
}

std::map<std::string, double> SpanTrace::LayerSelfSeconds() const {
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += Seconds(spans_[i].start, spans_[i].end);
    if (spans_[i].parent != 0) {
      self[spans_[i].parent - 1] -= Seconds(spans_[i].start, spans_[i].end);
    }
  }
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    layers[name.substr(0, name.find('.'))] += std::max(0.0, self[i]);
  }
  return layers;
}

bool SpanTrace::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (const Span& span : spans_) {
    origin = std::min(origin, span.start);
  }
  // Spans past kDumpLimit under one parent with one name (a fleet loop's
  // Route calls) are folded into one summary record per group.
  struct Folded {
    uint64_t count = 0;
    double seconds = 0.0;
  };
  std::map<std::pair<uint32_t, std::string>, uint64_t> seen;
  std::map<std::pair<uint32_t, std::string>, Folded> folded;
  const char* sep = "";
  std::fprintf(out, "[\n");
  for (const Span& span : spans_) {
    const auto key = std::make_pair(span.parent, std::string(span.name));
    if (++seen[key] > kDumpLimit) {
      Folded& f = folded[key];
      ++f.count;
      f.seconds += Seconds(span.start, span.end);
      continue;
    }
    std::fprintf(out,
                 "%s  {\"id\": %u, \"parent\": %u, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"dur_us\": %.3f}",
                 sep, span.id, span.parent, span.name, Seconds(origin, span.start) * 1e6,
                 Seconds(span.start, span.end) * 1e6);
    sep = ",\n";
  }
  for (const auto& [key, f] : folded) {
    std::fprintf(out,
                 "%s  {\"parent\": %u, \"name\": \"%s\", \"folded\": %llu, "
                 "\"total_dur_us\": %.3f}",
                 sep, key.first, key.second.c_str(), static_cast<unsigned long long>(f.count),
                 f.seconds * 1e6);
    sep = ",\n";
  }
  std::fprintf(out, "\n]\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
