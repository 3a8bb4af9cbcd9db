// Slab allocation for unified KV caches (§5.2 "Unified KV cache").
//
// The KV-cache block size differs per model (Table 1), so a naive
// fixed-partition cache fragments badly. Aegaeon divides each cache region
// (VRAM or DRAM) into fixed-size slabs; a slab is dynamically assigned to
// one *shape class* and then serves fixed-size blocks of that shape. A slab
// whose blocks are all free is reclaimed and can be re-assigned to a
// different shape.

#ifndef AEGAEON_MEM_SLAB_ALLOCATOR_H_
#define AEGAEON_MEM_SLAB_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aegaeon {

// Identifies a shape class (a distinct KV block geometry).
using ShapeClassId = uint32_t;

// A block within the slab allocator.
struct BlockRef {
  uint32_t slab = 0;
  uint32_t index = 0;

  uint64_t Packed() const { return (static_cast<uint64_t>(slab) << 32) | index; }
  bool operator==(const BlockRef& o) const { return slab == o.slab && index == o.index; }
};

class SlabAllocator {
 public:
  // `total_bytes` is carved into floor(total/slab_bytes) slabs.
  SlabAllocator(uint64_t total_bytes, uint64_t slab_bytes);
  ~SlabAllocator();

  // Identity-tracked by SimSan (blocks are keyed by the allocator address),
  // so the allocator must stay put once blocks are handed out.
  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Declares a shape class whose blocks are `block_bytes` each. Blocks
  // larger than a slab are rejected (returns false).
  bool RegisterShape(ShapeClassId shape, uint64_t block_bytes);

  // Allocates `count` blocks of `shape`. Returns the blocks, or an empty
  // vector if the request cannot be satisfied in full (all-or-nothing).
  // Fails in O(live slabs of `shape`) when `count > FreeBlocks(shape)`.
  std::vector<BlockRef> Alloc(ShapeClassId shape, size_t count);
  // As Alloc, but appends the blocks to `out`; on failure returns false and
  // leaves `out` unchanged.
  bool AllocInto(ShapeClassId shape, size_t count, std::vector<BlockRef>& out);

  // Exact number of `shape` blocks an Alloc could hand out right now: the
  // free blocks of the shape's slabs plus a free slab's worth per free slab.
  uint64_t FreeBlocks(ShapeClassId shape) const;

  // Returns blocks to their slabs; fully-freed slabs are reclaimed.
  void Free(const std::vector<BlockRef>& blocks);
  void FreeOne(BlockRef block);

  // --- Introspection ----------------------------------------------------
  size_t total_slabs() const { return slabs_.size(); }
  size_t free_slabs() const { return free_slabs_.size(); }
  uint64_t slab_bytes() const { return slab_bytes_; }

  // Blocks of `shape` currently allocated.
  uint64_t used_bytes(ShapeClassId shape) const;
  // Bytes of slabs currently assigned to `shape` (>= used_bytes).
  uint64_t held_bytes(ShapeClassId shape) const;

  uint64_t total_used_bytes() const { return total_used_bytes_; }
  uint64_t total_held_bytes() const { return total_held_slabs_ * slab_bytes_; }

  struct ShapeStats {
    uint64_t block_bytes = 0;
    uint64_t used_bytes = 0;       // live blocks right now
    uint64_t held_bytes = 0;       // slabs assigned right now
    uint64_t peak_held_bytes = 0;  // high-water of held_bytes
    uint64_t used_at_peak = 0;     // used_bytes when the peak was reached
    // Internal fragmentation at the allocation peak, the Figure 16 metric:
    // (held - used) / held at peak hold.
    double FragmentationAtPeak() const {
      return peak_held_bytes == 0
                 ? 0.0
                 : static_cast<double>(peak_held_bytes - used_at_peak) / peak_held_bytes;
    }
  };
  ShapeStats shape_stats(ShapeClassId shape) const;
  std::vector<ShapeClassId> shapes() const;

  // Aggregate fragmentation across all shapes at the global peak.
  ShapeStats overall_stats() const;

 private:
  struct Slab {
    static constexpr ShapeClassId kUnassigned = static_cast<ShapeClassId>(-1);
    ShapeClassId shape = kUnassigned;
    // Freed block indices, reused last freed first before any fresh one.
    std::vector<uint32_t> free_indices;
    // Blocks [fresh, block_capacity) have never been handed out since the
    // slab was acquired; they go out in ascending order.
    uint32_t fresh = 0;
    uint32_t used_count = 0;
    uint32_t block_capacity = 0;

    bool has_free() const { return used_count < block_capacity; }
    bool visited = false;  // scratch mark for FailAlloc's dedup
  };

  struct ShapeState {
    uint64_t block_bytes = 0;
    // Slabs assigned to this shape that may have free blocks (lazily pruned).
    std::vector<uint32_t> partial_slabs;
    uint64_t used_blocks = 0;
    uint64_t held_slabs = 0;
    uint64_t peak_held_bytes = 0;
    uint64_t used_at_peak = 0;
  };

  // Assigns a free slab to `shape`; returns its index or -1.
  int32_t AcquireSlab(ShapeClassId shape);
  // The lasting effect of a failed Alloc on the shape's partial list.
  void FailAlloc(ShapeState& state, ShapeClassId shape);
  void MaybeUpdatePeaks(ShapeState& state);
  void UpdateGlobalPeak();

  uint64_t slab_bytes_;
  std::vector<Slab> slabs_;
  std::vector<uint32_t> free_slabs_;
  // Dense, indexed by ShapeClassId; a slot is registered iff block_bytes != 0.
  // Keeps iteration order deterministic (the determinism lint forbids
  // unordered containers on scheduling/accounting paths).
  std::vector<ShapeState> shape_states_;
  // Running totals over all shapes, so the global peak is O(1) per Alloc.
  uint64_t total_held_slabs_ = 0;
  uint64_t total_used_bytes_ = 0;
  uint64_t global_peak_held_ = 0;
  uint64_t global_used_at_peak_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_MEM_SLAB_ALLOCATOR_H_
