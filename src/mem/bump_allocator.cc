#include "mem/bump_allocator.h"

#include <algorithm>
#include <cassert>

namespace aegaeon {

std::optional<uint64_t> BumpAllocator::Alloc(uint64_t bytes, uint64_t alignment) {
  assert(alignment != 0 && (alignment & (alignment - 1)) == 0 && "alignment must be a power of 2");
  uint64_t aligned = (offset_ + alignment - 1) & ~(alignment - 1);
  if (aligned > capacity_ || capacity_ - aligned < bytes) {
    return std::nullopt;
  }
  offset_ = aligned + bytes;
  high_water_ = std::max(high_water_, offset_);
  return aligned;
}

void BumpAllocator::ResetKeepingFront(uint64_t bytes) {
  assert(bytes <= capacity_);
  offset_ = std::min(bytes, offset_);
}

}  // namespace aegaeon
