#include "mem/slab_allocator.h"

#include <algorithm>
#include <cassert>

#include "sanitizer/simsan.h"

namespace aegaeon {

SlabAllocator::SlabAllocator(uint64_t total_bytes, uint64_t slab_bytes)
    : slab_bytes_(slab_bytes) {
  assert(slab_bytes > 0);
  size_t slab_count = static_cast<size_t>(total_bytes / slab_bytes);
  slabs_.resize(slab_count);
  free_slabs_.reserve(slab_count);
  // Pop from the back; seed in reverse so slab 0 is used first.
  for (size_t i = slab_count; i-- > 0;) {
    free_slabs_.push_back(static_cast<uint32_t>(i));
  }
}

SlabAllocator::~SlabAllocator() { simsan::NoteAllocatorDestroyed(this); }

bool SlabAllocator::RegisterShape(ShapeClassId shape, uint64_t block_bytes) {
  if (block_bytes == 0 || block_bytes > slab_bytes_) {
    return false;
  }
  if (shape >= shape_states_.size()) {
    shape_states_.resize(shape + 1);
  }
  ShapeState& state = shape_states_[shape];
  if (state.block_bytes == 0) {  // unregistered slot
    state.block_bytes = block_bytes;
    return true;
  }
  return state.block_bytes == block_bytes;
}

int32_t SlabAllocator::AcquireSlab(ShapeClassId shape) {
  if (free_slabs_.empty()) {
    return -1;
  }
  uint32_t slab_id = free_slabs_.back();
  free_slabs_.pop_back();
  ShapeState& state = shape_states_[shape];
  Slab& slab = slabs_[slab_id];
  slab.shape = shape;
  slab.block_capacity = static_cast<uint32_t>(slab_bytes_ / state.block_bytes);
  slab.used_count = 0;
  slab.fresh = 0;
  slab.free_indices.clear();
  state.held_slabs++;
  total_held_slabs_++;
  state.partial_slabs.push_back(slab_id);
  return static_cast<int32_t>(slab_id);
}

uint64_t SlabAllocator::FreeBlocks(ShapeClassId shape) const {
  const ShapeState& state = shape_states_[shape];
  uint64_t per_slab = slab_bytes_ / state.block_bytes;
  return (state.held_slabs + free_slabs_.size()) * per_slab - state.used_blocks;
}

std::vector<BlockRef> SlabAllocator::Alloc(ShapeClassId shape, size_t count) {
  std::vector<BlockRef> blocks;
  blocks.reserve(count);
  AllocInto(shape, count, blocks);
  return blocks;
}

bool SlabAllocator::AllocInto(ShapeClassId shape, size_t count, std::vector<BlockRef>& out) {
  assert(shape < shape_states_.size() && shape_states_[shape].block_bytes != 0 &&
         "shape must be registered before Alloc");
  ShapeState& state = shape_states_[shape];
  if (count > FreeBlocks(shape)) {
    FailAlloc(state, shape);
    return false;
  }

  const size_t first = out.size();
  const size_t end = first + count;
  while (out.size() < end) {
    // Find a slab of this shape with free blocks, pruning stale entries
    // (slabs that were reclaimed or filled up since being listed).
    int32_t slab_id = -1;
    while (!state.partial_slabs.empty()) {
      uint32_t candidate = state.partial_slabs.back();
      Slab& slab = slabs_[candidate];
      if (slab.shape == shape && slab.has_free()) {
        slab_id = static_cast<int32_t>(candidate);
        break;
      }
      state.partial_slabs.pop_back();
    }
    if (slab_id < 0) {
      slab_id = AcquireSlab(shape);
    }
    assert(slab_id >= 0 && "FreeBlocks admitted a request that does not fit");
    Slab& slab = slabs_[slab_id];
    while (out.size() < end && slab.has_free()) {
      uint32_t index = slab.fresh;
      if (!slab.free_indices.empty()) {
        index = slab.free_indices.back();
        slab.free_indices.pop_back();
      } else {
        slab.fresh++;
      }
      slab.used_count++;
      out.push_back(BlockRef{static_cast<uint32_t>(slab_id), index});
    }
    if (!slab.has_free() && !state.partial_slabs.empty() &&
        state.partial_slabs.back() == static_cast<uint32_t>(slab_id)) {
      state.partial_slabs.pop_back();
    }
  }
  state.used_blocks += count;
  total_used_bytes_ += count * state.block_bytes;
  MaybeUpdatePeaks(state);
  UpdateGlobalPeak();
  simsan::NoteAlloc(this, out.data() + first, count);
  return true;
}

void SlabAllocator::FailAlloc(ShapeState& state, ShapeClassId shape) {
  // Leaves the shape's live partial slabs, each once, in the order a
  // back-to-front scan meets them, so the next Alloc starts from the slab
  // met last. Simulated schedules depend on this order: it is the one that
  // draining the shape and rolling back block by block leaves (DESIGN.md §6).
  std::vector<uint32_t> visited;
  for (auto it = state.partial_slabs.rbegin(); it != state.partial_slabs.rend(); ++it) {
    Slab& slab = slabs_[*it];
    if (slab.shape == shape && slab.has_free() && !slab.visited) {
      slab.visited = true;
      visited.push_back(*it);
    }
  }
  for (uint32_t slab_id : visited) {
    slabs_[slab_id].visited = false;
  }
  state.partial_slabs = std::move(visited);
}

void SlabAllocator::FreeOne(BlockRef block) {
  simsan::NoteFree(this, block);
  Slab& slab = slabs_.at(block.slab);
  assert(slab.shape != Slab::kUnassigned && "freeing into an unassigned slab");
  assert(slab.used_count > 0);
  ShapeState& state = shape_states_[slab.shape];
  slab.used_count--;
  state.used_blocks--;
  total_used_bytes_ -= state.block_bytes;
  if (slab.used_count == 0) {
    // Reclaim: the slab returns to the free pool and can serve any shape.
    state.held_slabs--;
    total_held_slabs_--;
    slab.shape = Slab::kUnassigned;
    slab.free_indices.clear();
    free_slabs_.push_back(block.slab);
    return;
  }
  slab.free_indices.push_back(block.index);
  // A copy next to itself cannot change which slab a back-to-front scan
  // picks, so skip it: freeing a run of one slab's blocks lists it once.
  if (state.partial_slabs.empty() || state.partial_slabs.back() != block.slab) {
    state.partial_slabs.push_back(block.slab);
  }
}

void SlabAllocator::Free(const std::vector<BlockRef>& blocks) {
  for (const BlockRef& block : blocks) {
    FreeOne(block);
  }
}

uint64_t SlabAllocator::used_bytes(ShapeClassId shape) const {
  if (shape >= shape_states_.size()) {
    return 0;
  }
  const ShapeState& state = shape_states_[shape];
  return state.used_blocks * state.block_bytes;
}

uint64_t SlabAllocator::held_bytes(ShapeClassId shape) const {
  if (shape >= shape_states_.size() || shape_states_[shape].block_bytes == 0) {
    return 0;
  }
  return shape_states_[shape].held_slabs * slab_bytes_;
}

void SlabAllocator::MaybeUpdatePeaks(ShapeState& state) {
  uint64_t held = state.held_slabs * slab_bytes_;
  if (held >= state.peak_held_bytes) {
    state.peak_held_bytes = held;
    state.used_at_peak = state.used_blocks * state.block_bytes;
  }
}

void SlabAllocator::UpdateGlobalPeak() {
  uint64_t held = total_held_bytes();
  if (held >= global_peak_held_) {
    global_peak_held_ = held;
    global_used_at_peak_ = total_used_bytes_;
  }
}

SlabAllocator::ShapeStats SlabAllocator::shape_stats(ShapeClassId shape) const {
  ShapeStats stats;
  if (shape >= shape_states_.size() || shape_states_[shape].block_bytes == 0) {
    return stats;
  }
  const ShapeState& state = shape_states_[shape];
  stats.block_bytes = state.block_bytes;
  stats.used_bytes = state.used_blocks * state.block_bytes;
  stats.held_bytes = state.held_slabs * slab_bytes_;
  stats.peak_held_bytes = state.peak_held_bytes;
  stats.used_at_peak = state.used_at_peak;
  return stats;
}

std::vector<ShapeClassId> SlabAllocator::shapes() const {
  std::vector<ShapeClassId> out;
  for (ShapeClassId shape = 0; shape < shape_states_.size(); shape++) {
    if (shape_states_[shape].block_bytes != 0) {
      out.push_back(shape);
    }
  }
  return out;
}

SlabAllocator::ShapeStats SlabAllocator::overall_stats() const {
  ShapeStats stats;
  stats.used_bytes = total_used_bytes();
  stats.held_bytes = total_held_bytes();
  stats.peak_held_bytes = global_peak_held_;
  stats.used_at_peak = global_used_at_peak_;
  return stats;
}

}  // namespace aegaeon
