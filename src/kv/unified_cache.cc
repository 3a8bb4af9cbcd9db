#include "kv/unified_cache.h"

#include <algorithm>
#include <cassert>

#include "sanitizer/simsan.h"

namespace aegaeon {

UnifiedKvCache::UnifiedKvCache(std::string name, uint64_t capacity_bytes, uint64_t slab_bytes,
                               int tokens_per_block)
    : name_(std::move(name)),
      slabs_(capacity_bytes, slab_bytes),
      tokens_per_block_(tokens_per_block) {
  assert(tokens_per_block_ > 0);
  simsan::NoteAllocatorName(&slabs_, name_);
}

ShapeClassId UnifiedKvCache::RegisterShape(const KvShape& shape, int dtype_bytes) {
  auto key = std::make_tuple(shape.layers, shape.kv_heads, shape.head_dim, dtype_bytes);
  auto it = shape_ids_.find(key);
  if (it != shape_ids_.end()) {
    return it->second;
  }
  ShapeClassId id = static_cast<ShapeClassId>(block_bytes_.size());
  uint64_t bytes =
      static_cast<uint64_t>(shape.BytesPerToken(dtype_bytes)) * static_cast<uint64_t>(tokens_per_block_);
  bool ok = slabs_.RegisterShape(id, bytes);
  assert(ok && "KV block larger than a slab; increase the slab size");
  (void)ok;
  block_bytes_.push_back(bytes);
  shape_ids_.emplace(key, id);
  return id;
}

int64_t UnifiedKvCache::BlocksForTokens(int64_t tokens) const {
  return (tokens + tokens_per_block_ - 1) / tokens_per_block_;
}

uint64_t UnifiedKvCache::BlockBytes(ShapeClassId shape) const { return block_bytes_.at(shape); }

std::vector<BlockRef> UnifiedKvCache::AllocTokens(ShapeClassId shape, int64_t tokens) {
  int64_t blocks = BlocksForTokens(tokens);
  if (blocks == 0) {
    return {};
  }
  return slabs_.Alloc(shape, static_cast<size_t>(blocks));
}

bool UnifiedKvCache::AllocTokensInto(ShapeClassId shape, int64_t tokens,
                                     std::vector<BlockRef>& out) {
  assert(tokens > 0);
  return slabs_.AllocInto(shape, static_cast<size_t>(BlocksForTokens(tokens)), out);
}

void UnifiedKvCache::Free(const std::vector<BlockRef>& blocks) { slabs_.Free(blocks); }

void UnifiedKvCache::DeferFree(std::vector<BlockRef> blocks, EventSim transfer) {
  if (blocks.empty()) {
    return;
  }
  deferred_frees_ += blocks.size();
  simsan::NoteDeferFree(&slabs_, blocks, transfer.complete_at());
  move_list_.push_back(MoveEntry{std::move(blocks), transfer});
  move_list_peak_ = std::max(move_list_peak_, move_list_.size());
}

size_t UnifiedKvCache::Reclaim(TimePoint now) {
  // Advance the shadow clock first so the frees below are judged against
  // `now`, not against whatever event last moved the watermark.
  simsan::NoteReclaimPass(&slabs_, now);
  size_t reclaimed = 0;
  // Entries complete roughly in FIFO order, but transfers on different
  // streams may finish out of order, so scan the whole list.
  for (auto it = move_list_.begin(); it != move_list_.end();) {
    if (it->transfer.Query(now)) {
      slabs_.Free(it->blocks);
      reclaimed += it->blocks.size();
      it = move_list_.erase(it);
    } else {
      ++it;
    }
  }
  return reclaimed;
}

int64_t UnifiedKvCache::FreeTokens(ShapeClassId shape) const {
  return static_cast<int64_t>(slabs_.FreeBlocks(shape)) * tokens_per_block_;
}

}  // namespace aegaeon
