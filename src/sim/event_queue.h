// A stable priority queue of timestamped events.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking via a monotonically increasing sequence
// number), which makes simulations fully deterministic.
//
// Hot-path design: callbacks are EventCallback (small-buffer-optimized,
// move-only — no heap allocation for typical captures), and cancellation is
// an O(1) generation-checked slot-map instead of a hash set. Callbacks live
// in the slot-map, not in the heap: heap entries are 24-byte PODs, so the
// O(log n) sift on every push/pop moves keys only, and a callback is moved
// exactly twice in its lifetime (into its slot, out to fire). A cancelled
// event leaves a tombstone in the heap that is reclaimed either when it
// reaches the front or by an amortized compaction pass once tombstones
// outnumber live entries, so memory stays bounded by the live event count
// regardless of how many schedule/cancel cycles a run performs.

#ifndef AEGAEON_SIM_EVENT_QUEUE_H_
#define AEGAEON_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace aegaeon {

// Opaque handle identifying a scheduled event; usable for cancellation.
// Encodes (generation << 32 | slot) so stale handles are rejected in O(1).
using EventId = uint64_t;

class EventQueue {
 public:
  using Callback = EventCallback;

  EventQueue() = default;
  ~EventQueue();

  // Non-copyable: callbacks frequently capture `this` of other objects.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `cb` to fire at absolute time `when`. Returns a handle that can
  // be passed to Cancel().
  EventId Push(TimePoint when, Callback cb);

  // Marks the event as cancelled. Cancelled events are skipped when they
  // reach the front of the queue. Returns false if the event already fired
  // or was already cancelled.
  bool Cancel(EventId id);

  // A pending event extracted by Drain() or inserted by Merge().
  struct Pending {
    TimePoint when = 0.0;
    Callback cb;
  };

  // --- Epoch boundaries (sharded simulation) ----------------------------
  // Extracts every live event in (when, seq) order and empties the queue.
  // Tombstones are discarded, every slot is released, and every generation
  // is bumped, so EventIds issued before the drain are rejected by Cancel()
  // even after their slots are reused — the invariant the sharded
  // simulator's epoch rollovers rely on when moving events between queues.
  std::vector<Pending> Drain();

  // Bulk-schedules [events, events + count) in input order (FIFO tie-break
  // preserved for equal timestamps). Equivalent to Push() per event but
  // amortizes the heap maintenance: once the batch rivals the live heap it
  // appends everything and rebuilds once instead of sifting per event.
  // Safe at epoch boundaries: tombstones pending compaction are untouched
  // and outstanding EventIds stay valid. Moves the callbacks out but leaves
  // the storage with the caller, so a reused scratch vector keeps its
  // capacity across epochs — the sharded fleet's zero-steady-state-
  // allocation injection path.
  void Merge(Pending* events, size_t count);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  // Time of the earliest live event; kTimeNever when empty.
  TimePoint NextTime();

  // Pops and runs the earliest live event. Returns its timestamp.
  // Precondition: !empty().
  TimePoint PopAndRun();

  // --- Introspection (tests and benches) --------------------------------
  // Heap entries, including tombstones awaiting reclamation.
  size_t heap_size() const { return heap_.size(); }
  // Total cancellation slots ever allocated (bounded by peak live events).
  size_t slot_capacity() const { return slots_.size(); }

 private:
  // POD heap key; the callback stays in slots_ so sifts don't move it.
  struct Entry {
    TimePoint when;
    uint64_t seq;   // FIFO tie-break for equal timestamps
    uint32_t slot;  // index into slots_
  };

  enum class SlotState : uint8_t { kFree, kLive, kCancelled };

  struct Slot {
    Callback cb;
    uint32_t generation = 0;
    SlotState state = SlotState::kFree;
  };

  // Min-heap comparison on (when, seq).
  static bool Later(const Entry& a, const Entry& b) {
    if (a.when != b.when) {
      return a.when > b.when;
    }
    return a.seq > b.seq;
  }

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);

  // Drops cancelled entries from the front of the heap.
  void SkipCancelled();

  // Rebuilds the heap without tombstones once they dominate; amortized O(1)
  // per cancel, keeps heap_.size() <= 2 * live_count_ on long horizons.
  void Compact();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_SIM_EVENT_QUEUE_H_
