#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sanitizer/simsan.h"

namespace aegaeon {

EventQueue::~EventQueue() { simsan::NoteQueueDestroyed(this); }

namespace {

constexpr uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
constexpr uint32_t GenerationOf(EventId id) { return static_cast<uint32_t>(id >> 32); }

constexpr EventId MakeId(uint32_t generation, uint32_t slot) {
  return (static_cast<EventId>(generation) << 32) | slot;
}

// Compaction threshold: don't bother rebuilding tiny heaps.
constexpr size_t kMinCompactHeap = 64;

}  // namespace

uint32_t EventQueue::AcquireSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].state = SlotState::kLive;
    return slot;
  }
  slots_.emplace_back();
  slots_.back().state = SlotState::kLive;
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  // Bumping the generation on release invalidates every outstanding EventId
  // that still points at this slot.
  slots_[slot].cb = Callback();
  ++slots_[slot].generation;
  slots_[slot].state = SlotState::kFree;
  free_slots_.push_back(slot);
}

EventId EventQueue::Push(TimePoint when, Callback cb) {
  uint32_t slot = AcquireSlot();
  slots_[slot].cb = std::move(cb);
  EventId id = MakeId(slots_[slot].generation, slot);
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  ++live_count_;
  return id;
}

bool EventQueue::Cancel(EventId id) {
  uint32_t slot = SlotOf(id);
  if (slot >= slots_.size()) {
    return false;
  }
  Slot& s = slots_[slot];
  // A fired or already-cancelled event either bumped the generation or left
  // the slot in a non-live state; both reject here.
  if (s.generation != GenerationOf(id) || s.state != SlotState::kLive) {
    return false;
  }
  s.state = SlotState::kCancelled;
  --live_count_;
  ++tombstones_;
  if (heap_.size() >= kMinCompactHeap && tombstones_ * 2 > heap_.size()) {
    Compact();
  }
  return true;
}

std::vector<EventQueue::Pending> EventQueue::Drain() {
  // Order by (when, seq) — the exact order PopAndRun would have fired them.
  std::sort(heap_.begin(), heap_.end(), [](const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  });
  std::vector<Pending> out;
  out.reserve(live_count_);
  for (const Entry& entry : heap_) {
    Slot& slot = slots_[entry.slot];
    if (slot.state == SlotState::kLive) {
      out.push_back(Pending{entry.when, std::move(slot.cb)});
    }
    // Releasing bumps the generation, so ids issued before the drain are
    // stale even once the slot is handed out again.
    ReleaseSlot(entry.slot);
  }
  heap_.clear();
  live_count_ = 0;
  tombstones_ = 0;
  return out;
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
    uint32_t slot = AcquireSlot();
    slots_[slot].cb = std::move(event.cb);
    heap_.push_back(Entry{event.when, next_seq_++, slot});
    if (!bulk) {
      std::push_heap(heap_.begin(), heap_.end(), Later);
    }
    ++live_count_;
  }
  if (bulk) {
    std::make_heap(heap_.begin(), heap_.end(), Later);
  }
}

void EventQueue::Compact() {
  size_t kept = 0;
  for (const Entry& entry : heap_) {
    if (slots_[entry.slot].state == SlotState::kCancelled) {
      ReleaseSlot(entry.slot);
    } else {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  std::make_heap(heap_.begin(), heap_.end(), Later);
  tombstones_ = 0;
}

void EventQueue::SkipCancelled() {
  while (!heap_.empty() && slots_[heap_.front().slot].state == SlotState::kCancelled) {
    ReleaseSlot(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
    --tombstones_;
  }
}

TimePoint EventQueue::NextTime() {
  SkipCancelled();
  if (heap_.empty()) {
    return kTimeNever;
  }
  return heap_.front().when;
}

TimePoint EventQueue::PopAndRun() {
  SkipCancelled();
  assert(!heap_.empty() && "PopAndRun on an empty EventQueue");
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  Entry entry = heap_.back();
  heap_.pop_back();
  // Move the callback out and release before running it, so the callback can
  // immediately reuse the slot; the generation bump keeps the fired event's
  // id invalid for Cancel().
  Callback cb = std::move(slots_[entry.slot].cb);
  ReleaseSlot(entry.slot);
  --live_count_;
  simsan::NoteDispatch(this, entry.when);
  cb();
  return entry.when;
}

}  // namespace aegaeon
