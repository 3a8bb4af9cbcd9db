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
  // preserved for equal timestamps). Equivalent to Push() per event but
  // amortizes the heap maintenance: once the batch rivals the live heap it
  // appends everything and rebuilds once instead of sifting per event.
  // Moves the callbacks out but leaves the storage with the caller, so a
  // reused scratch vector keeps its capacity across calls.
  void Merge(Pending* events, size_t count);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time of the earliest event; kTimeNever when empty.
  TimePoint NextTime() const { return heap_.empty() ? kTimeNever : heap_.front().when; }

  // Pops and runs the earliest event. Returns its timestamp.
  // Precondition: !empty().
  TimePoint PopAndRun();

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

  // Stores `cb` in a free (or new) slot and returns its index.
  uint32_t AcquireSlot(Callback&& cb);

  std::vector<Entry> heap_;
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_SIM_EVENT_QUEUE_H_
