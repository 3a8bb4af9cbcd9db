#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>

#include "sanitizer/simsan.h"

namespace aegaeon {

EventQueue::~EventQueue() { simsan::NoteQueueDestroyed(this); }

uint32_t EventQueue::AcquireSlot(Callback&& cb) {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
    return slot;
  }
  slots_.push_back(std::move(cb));
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::PushHeap(const Entry& entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later);
  heap_peak_ = std::max(heap_peak_, heap_.size());
}

void EventQueue::Push(TimePoint when, Callback cb) {
  PushHeap(Entry{when, next_seq_++, AcquireSlot(std::move(cb))});
}

void EventQueue::Merge(Pending* events, size_t count) {
  // Drop the run's consumed prefix once it is at least half the run, so
  // repeated merges (one per fleet epoch) keep it bounded at O(1) amortized.
  const size_t consumed = run_.size() - run_pending_;
  if (consumed * 2 >= run_.size()) {
    run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  // Grow once, to an exact fit for a trace injected up front, but never by
  // less than doubling, so per-epoch fleet merges stay amortized O(1).
  if (run_.size() + count > run_.capacity()) {
    run_.reserve(std::max(run_.size() + count, 2 * run_.capacity()));
  }
  for (size_t i = 0; i < count; ++i) {
    Pending& event = events[i];
    Entry entry{event.when, next_seq_++, AcquireSlot(std::move(event.cb))};
    // A non-empty run ends in a pending entry here; a later seq breaks
    // equal-time ties, so appending keeps the run sorted by (when, seq).
    if (run_.empty() || entry.when >= run_.back().when) {
      run_.push_back(entry);
      ++run_pending_;
    } else {
      PushHeap(entry);
    }
  }
}

TimePoint EventQueue::PopAndRun() {
  assert(!empty() && "PopAndRun on an empty EventQueue");
  Entry entry{};
  if (run_pending_ != 0 && RunHeadFirst()) {
    entry = RunHead();
    --run_pending_;
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    entry = heap_.back();
    heap_.pop_back();
  }
  // Move the callback out and free its slot before running it, so the
  // callback can immediately reuse the slot.
  Callback cb = std::move(slots_[entry.slot]);
  free_slots_.push_back(entry.slot);
  simsan::NoteDispatch(this, entry.when);
  cb();
  return entry.when;
}

}  // namespace aegaeon
