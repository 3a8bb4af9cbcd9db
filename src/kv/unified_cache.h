// A unified KV cache region (VRAM or DRAM) serving blocks of several shapes
// via slab allocation (§5.2), plus the *move lists* of §5.3: blocks whose
// logical owner released them but which are still touched by an in-flight
// asynchronous transfer. Move-listed blocks stay allocated (so new
// allocations can never race with an ongoing copy — rule ❸) until a
// reclaim pass observes the transfer's completion event.

#ifndef AEGAEON_KV_UNIFIED_CACHE_H_
#define AEGAEON_KV_UNIFIED_CACHE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "hw/cuda_sim.h"
#include "mem/slab_allocator.h"
#include "model/model_spec.h"
#include "sim/time.h"

namespace aegaeon {

class UnifiedKvCache {
 public:
  // `tokens_per_block` mirrors PagedAttention's block granularity.
  UnifiedKvCache(std::string name, uint64_t capacity_bytes, uint64_t slab_bytes,
                 int tokens_per_block = 16);

  // Returns the shape-class id for this KV geometry, registering it on first
  // use. Models with identical geometry share a class.
  ShapeClassId RegisterShape(const KvShape& shape, int dtype_bytes);

  // Number of blocks needed to hold `tokens` tokens.
  int64_t BlocksForTokens(int64_t tokens) const;

  // Bytes of one block of `shape`.
  uint64_t BlockBytes(ShapeClassId shape) const;

  // Allocates blocks for `tokens` tokens of `shape`; empty on failure
  // (all-or-nothing).
  std::vector<BlockRef> AllocTokens(ShapeClassId shape, int64_t tokens);
  // As AllocTokens for `tokens` > 0, but appends the blocks to `out`;
  // returns false and leaves `out` unchanged on failure.
  bool AllocTokensInto(ShapeClassId shape, int64_t tokens, std::vector<BlockRef>& out);

  // Immediately frees blocks not involved in any transfer.
  void Free(const std::vector<BlockRef>& blocks);

  // Move list: defers the free until `transfer` completes. The blocks remain
  // unavailable to allocations in the meantime.
  void DeferFree(std::vector<BlockRef> blocks, EventSim transfer);

  // Reclaims move-list entries whose transfer completed by `now` (the §5.3
  // daemon thread). Returns the number of blocks reclaimed.
  size_t Reclaim(TimePoint now);

  // Exact number of tokens of `shape` an AllocTokens could hold right now
  // (SlabAllocator::FreeBlocks, in whole blocks).
  int64_t FreeTokens(ShapeClassId shape) const;

  const SlabAllocator& slabs() const { return slabs_; }
  const std::string& name() const { return name_; }
  int tokens_per_block() const { return tokens_per_block_; }
  size_t move_list_size() const { return move_list_.size(); }
  size_t move_list_peak() const { return move_list_peak_; }
  uint64_t deferred_frees() const { return deferred_frees_; }

 private:
  std::string name_;
  SlabAllocator slabs_;
  int tokens_per_block_;

  // (layers, kv_heads, head_dim, dtype) -> shape class.
  std::map<std::tuple<int, int, int, int>, ShapeClassId> shape_ids_;
  std::vector<uint64_t> block_bytes_;  // indexed by ShapeClassId

  struct MoveEntry {
    std::vector<BlockRef> blocks;
    EventSim transfer;
  };
  std::deque<MoveEntry> move_list_;
  size_t move_list_peak_ = 0;
  uint64_t deferred_frees_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_KV_UNIFIED_CACHE_H_
