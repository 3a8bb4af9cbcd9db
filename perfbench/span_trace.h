// In-memory host-time spans for the benchmark's traced run.
//
// Spans sit at the boundaries where the benchmark calls into the system
// under test (constructor, BeginRun / model-cache warm, inject, event
// loop, each fleet Route, finish). They are kept in memory and written out
// once, when the benchmark ends. A disabled trace records nothing, so the
// untraced run pays only for the timestamps its end-to-end metrics need.

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: no parent
  // Layer-prefixed name ("core.ctor", "ctrl.route", ...); the text before
  // the first '.' is the layer the span's self time is charged to.
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

class SpanTrace {
 public:
  static constexpr uint64_t kDumpLimit = 1000;

  explicit SpanTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Reserves a span whose times are set later (parents must exist before
  // their children are added). Returns 0 when disabled.
  uint32_t Reserve(const char* name, uint32_t parent);
  void SetTimes(uint32_t id, Clock::time_point start, Clock::time_point end);
  // Records a finished span. Returns its id (0 when disabled).
  uint32_t Add(const char* name, uint32_t parent, Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer, in seconds: each span's duration minus the time
  // its direct children cover, summed by the layer prefix of its name.
  std::map<std::string, double> LayerSelfSeconds() const;

  // Writes the spans as a JSON array (ids, parents, names, start offsets
  // and durations in microseconds from the earliest span). Beyond
  // kDumpLimit spans of one name under one parent, the rest are written as
  // one record with their count and total duration. Returns false when the
  // file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
