// BumpAllocator — the self-managed VRAM buffer of §5.2. Aegaeon requests
// all VRAM needed for weights and KV cache in a single allocation at
// startup and manages it with bump allocation: allocations advance a
// pointer, and deallocation is an O(1) pointer reset. This bypasses the
// tensor library's caching allocator and removes the garbage collection
// pass from the scale-up critical path. It also supports the prefetch
// promotion used by quick model loading (Figure 9, step 3.b): a model
// prefetched *behind* the running model is moved to the front of the buffer
// with an on-device copy, modeled by resetting the bump pointer to just
// past the promoted region. BumpAllocator tracks offsets only — the
// simulation never touches real VRAM.

#ifndef AEGAEON_MEM_BUMP_ALLOCATOR_H_
#define AEGAEON_MEM_BUMP_ALLOCATOR_H_

#include <cstdint>
#include <optional>

namespace aegaeon {

class BumpAllocator {
 public:
  explicit BumpAllocator(uint64_t capacity_bytes) : capacity_(capacity_bytes) {}

  // Allocates `bytes` aligned to `alignment` (a power of two). Returns the
  // offset of the allocation within the buffer, or nullopt on exhaustion.
  std::optional<uint64_t> Alloc(uint64_t bytes, uint64_t alignment = 256);

  // Frees everything: O(1).
  void Reset() { offset_ = 0; }

  // Frees everything except a front region of `bytes` (used after promoting
  // a prefetched model to the start of the buffer).
  void ResetKeepingFront(uint64_t bytes);

  uint64_t used() const { return offset_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t remaining() const { return capacity_ - offset_; }
  uint64_t high_water() const { return high_water_; }

 private:
  uint64_t capacity_;
  uint64_t offset_ = 0;
  uint64_t high_water_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_MEM_BUMP_ALLOCATOR_H_
