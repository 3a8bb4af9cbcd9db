#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace aegaeon {

namespace {

// Times the *host* cost of a run for SimPerf reports (events/s); simulated
// time comes exclusively from the event queue.
// LINT-ALLOW(wall-clock): host-side SimPerf timing; never feeds sim time
double Elapsed(std::chrono::steady_clock::time_point start) {
  // LINT-ALLOW(wall-clock): host-side SimPerf timing; never feeds sim time
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

void Simulator::At(TimePoint when, EventQueue::Callback cb) {
  queue_.Push(std::max(when, now_), std::move(cb));
}

void Simulator::After(Duration delay, EventQueue::Callback cb) {
  At(now_ + std::max(delay, 0.0), std::move(cb));
}

void Simulator::ScheduleBatch(EventQueue::Pending* batch, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    batch[i].when = std::max(batch[i].when, now_);
  }
  queue_.Merge(batch, count);
}

uint64_t Simulator::Run() {
  // LINT-ALLOW(wall-clock): host cost of the run for SimPerfCounters only
  auto start = std::chrono::steady_clock::now();
  uint64_t processed = 0;
  while (!queue_.empty()) {
    // Advance the clock *before* running the callback so that Now() inside
    // it reports the event's own timestamp.
    now_ = queue_.NextTime();
    queue_.PopAndRun();
    ++processed;
  }
  perf_.events_processed += processed;
  perf_.wall_seconds += Elapsed(start);
  perf_.heap_peak = queue_.heap_peak();
  return processed;
}

uint64_t Simulator::RunUntil(TimePoint horizon) {
  // LINT-ALLOW(wall-clock): host cost of the run for SimPerfCounters only
  auto start = std::chrono::steady_clock::now();
  uint64_t processed = 0;
  while (!queue_.empty() && queue_.NextTime() <= horizon) {
    now_ = queue_.NextTime();
    queue_.PopAndRun();
    ++processed;
  }
  now_ = std::max(now_, horizon);
  perf_.events_processed += processed;
  perf_.wall_seconds += Elapsed(start);
  perf_.heap_peak = queue_.heap_peak();
  return processed;
}

}  // namespace aegaeon
