// A stable priority queue of timestamped events.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking via a monotonically increasing sequence
// number), which makes simulations fully deterministic.
//
// Hot-path design: callbacks are EventCallback (small-buffer-optimized,
// move-only — no heap allocation for typical captures) and live in a slot
// array with a free list, not in the heap: heap entries are 24-byte PODs,
// so the O(log n) sift on every push/pop moves keys only, and a callback is
// moved exactly twice in its lifetime (into its slot, out to fire). Events
// cannot be cancelled; components that outlive a scheduled callback's
// purpose drop it on arrival with their own epoch counters.
//
// Merged batches are mostly time-sorted (a trace's arrivals), so Merge()
// appends each event that is no earlier than the last one it appended to a
// sorted FIFO run kept beside the heap, and pops take whichever of the heap
// top and the run head is earlier by (when, seq). A whole trace injected up
// front then costs O(1) per arrival instead of a sift through a heap that
// holds every arrival of the run.

#ifndef AEGAEON_SIM_EVENT_QUEUE_H_
#define AEGAEON_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace aegaeon {

class EventQueue {
 public:
  using Callback = EventCallback;

  EventQueue() = default;
  ~EventQueue();

  // Non-copyable: callbacks frequently capture `this` of other objects.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `cb` to fire at absolute time `when`.
  void Push(TimePoint when, Callback cb);

  // An event handed to Merge().
  struct Pending {
    TimePoint when = 0.0;
    Callback cb;
  };

  // Bulk-schedules [events, events + count) in input order (FIFO tie-break
  // preserved for equal timestamps). Equivalent to Push() per event; events
  // that arrive in time order skip the heap (see the file comment). Moves
  // the callbacks out but leaves the storage with the caller, so a reused
  // scratch vector keeps its capacity across calls.
  void Merge(Pending* events, size_t count);

  bool empty() const { return heap_.empty() && run_pending_ == 0; }
  size_t size() const { return heap_.size() + run_pending_; }

  // Time of the earliest event; kTimeNever when empty.
  TimePoint NextTime() const {
    if (run_pending_ == 0) {
      return heap_.empty() ? kTimeNever : heap_.front().when;
    }
    return RunHeadFirst() ? RunHead().when : heap_.front().when;
  }

  // Pops and runs the earliest event. Returns its timestamp.
  // Precondition: !empty().
  TimePoint PopAndRun();

  // Largest number of entries the heap has held (the sorted run excluded):
  // a deterministic measure of the sift work per push and pop.
  size_t heap_peak() const { return heap_peak_; }

 private:
  // POD heap key; the callback stays in slots_ so sifts don't move it.
  struct Entry {
    TimePoint when;
    uint64_t seq;   // FIFO tie-break for equal timestamps
    uint32_t slot;  // index into slots_
  };

  // Min-heap comparison on (when, seq).
  static bool Later(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  // Precondition for both: the run has a pending entry.
  const Entry& RunHead() const { return run_[run_.size() - run_pending_]; }
  // True when the run's head fires before the heap top.
  bool RunHeadFirst() const { return heap_.empty() || Later(heap_.front(), RunHead()); }

  // Stores `cb` in a free (or new) slot and returns its index.
  uint32_t AcquireSlot(Callback&& cb);
  void PushHeap(const Entry& entry);

  std::vector<Entry> heap_;
  // Sorted by (when, seq); the last run_pending_ entries are still pending.
  // A count, not a head index, so an empty run costs one compare per pop.
  std::vector<Entry> run_;
  size_t run_pending_ = 0;
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  size_t heap_peak_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_SIM_EVENT_QUEUE_H_
