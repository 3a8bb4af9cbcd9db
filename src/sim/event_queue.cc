#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
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

void EventQueue::Push(TimePoint when, Callback cb) {
  heap_.push_back(Entry{when, next_seq_++, AcquireSlot(std::move(cb))});
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

void EventQueue::Merge(Pending* events, size_t count) {
  if (count == 0) {
    return;
  }
  // Below this, per-event sifting beats a full rebuild.
  const bool bulk = count * 2 >= heap_.size() + count;
  heap_.reserve(heap_.size() + count);
  for (size_t i = 0; i < count; ++i) {
    Pending& event = events[i];
    heap_.push_back(Entry{event.when, next_seq_++, AcquireSlot(std::move(event.cb))});
    if (!bulk) {
      std::push_heap(heap_.begin(), heap_.end(), Later);
    }
  }
  if (bulk) {
    std::make_heap(heap_.begin(), heap_.end(), Later);
  }
}

TimePoint EventQueue::PopAndRun() {
  assert(!heap_.empty() && "PopAndRun on an empty EventQueue");
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  Entry entry = heap_.back();
  heap_.pop_back();
  // Move the callback out and free its slot before running it, so the
  // callback can immediately reuse the slot.
  Callback cb = std::move(slots_[entry.slot]);
  free_slots_.push_back(entry.slot);
  simsan::NoteDispatch(this, entry.when);
  cb();
  return entry.when;
}

}  // namespace aegaeon
