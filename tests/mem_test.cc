// Tests for the explicit memory management substrate (§5.2): bump
// allocation, slab allocation, and the host model cache.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/bump_allocator.h"
#include "mem/model_cache.h"
#include "mem/slab_allocator.h"
#include "sim/random.h"

namespace aegaeon {
namespace {

// --- BumpAllocator --------------------------------------------------------

TEST(BumpAllocatorTest, AllocationsAreConsecutiveAndAligned) {
  BumpAllocator bump(1024);
  auto a = bump.Alloc(100, 64);
  auto b = bump.Alloc(100, 64);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 128u);  // 100 rounded up to the next 64-byte boundary
  EXPECT_EQ(*b % 64, 0u);
}

TEST(BumpAllocatorTest, ExhaustionReturnsNullopt) {
  BumpAllocator bump(256);
  EXPECT_TRUE(bump.Alloc(200, 1).has_value());
  EXPECT_FALSE(bump.Alloc(100, 1).has_value());
  EXPECT_EQ(bump.used(), 200u);
}

TEST(BumpAllocatorTest, ResetIsInstantFullFree) {
  BumpAllocator bump(256);
  bump.Alloc(200, 1);
  bump.Reset();
  EXPECT_EQ(bump.used(), 0u);
  EXPECT_TRUE(bump.Alloc(256, 1).has_value());
  EXPECT_EQ(bump.high_water(), 256u);
}

TEST(BumpAllocatorTest, ResetKeepingFrontModelsPrefetchPromotion) {
  BumpAllocator bump(1000);
  bump.Alloc(400, 1);  // running model
  bump.Alloc(300, 1);  // prefetched model behind it
  // Promote: the prefetched 300 bytes move to the front; rest freed.
  bump.ResetKeepingFront(300);
  EXPECT_EQ(bump.used(), 300u);
  EXPECT_EQ(bump.remaining(), 700u);
}

TEST(BumpAllocatorTest, OverflowNearCapacityIsSafe) {
  BumpAllocator bump(100);
  bump.Alloc(90, 1);
  // aligned offset would exceed capacity; must not wrap.
  EXPECT_FALSE(bump.Alloc(1, 64).has_value());
}

// --- SlabAllocator ----------------------------------------------------------

TEST(SlabAllocatorTest, AllocatesRegisteredShapes) {
  SlabAllocator slabs(1000, 100);
  ASSERT_TRUE(slabs.RegisterShape(0, 30));  // 3 blocks per slab
  auto blocks = slabs.Alloc(0, 4);
  EXPECT_EQ(blocks.size(), 4u);
  EXPECT_EQ(slabs.used_bytes(0), 120u);
  EXPECT_EQ(slabs.held_bytes(0), 200u);  // two slabs
}

TEST(SlabAllocatorTest, RejectsOversizedBlocks) {
  SlabAllocator slabs(1000, 100);
  EXPECT_FALSE(slabs.RegisterShape(0, 101));
  EXPECT_FALSE(slabs.RegisterShape(1, 0));
  EXPECT_TRUE(slabs.RegisterShape(2, 100));
}

TEST(SlabAllocatorTest, AllOrNothingOnExhaustion) {
  SlabAllocator slabs(200, 100);
  slabs.RegisterShape(0, 100);  // 1 block per slab, 2 slabs total
  EXPECT_EQ(slabs.Alloc(0, 3).size(), 0u);
  // The failed allocation rolled back completely.
  EXPECT_EQ(slabs.used_bytes(0), 0u);
  EXPECT_EQ(slabs.free_slabs(), 2u);
  EXPECT_EQ(slabs.Alloc(0, 2).size(), 2u);
}

TEST(SlabAllocatorTest, FreeBlocksCountsPartialAndFreeSlabs) {
  SlabAllocator slabs(1000, 100);
  slabs.RegisterShape(0, 30);  // 3 blocks per slab, 10 bytes of slack each
  EXPECT_EQ(slabs.FreeBlocks(0), 30u);
  auto blocks = slabs.Alloc(0, 4);  // one full slab, one with 2 free
  EXPECT_EQ(slabs.FreeBlocks(0), 26u);
  EXPECT_TRUE(slabs.Alloc(0, 27).empty());
  EXPECT_EQ(slabs.Alloc(0, 26).size(), 26u);
  EXPECT_EQ(slabs.FreeBlocks(0), 0u);
}

TEST(SlabAllocatorTest, FailedAllocKeepsTheRollbackOrder) {
  // Five slabs of three blocks. Fill slabs 0-2, then free one block in
  // slab 0 and one in slab 1: the partial list is [0, 1], slabs 3 and 4
  // are free, and shape 0 can take 1 + 1 + 2 * 3 = 8 more blocks.
  SlabAllocator slabs(1500, 300);
  slabs.RegisterShape(0, 100);
  slabs.RegisterShape(1, 300);
  auto a = slabs.Alloc(0, 3);
  auto b = slabs.Alloc(0, 3);
  auto c = slabs.Alloc(0, 3);
  ASSERT_EQ(a[0].slab, 0u);
  ASSERT_EQ(b[0].slab, 1u);
  slabs.FreeOne(a[0]);
  slabs.FreeOne(b[0]);
  ASSERT_EQ(slabs.FreeBlocks(0), 8u);

  EXPECT_TRUE(slabs.Alloc(0, 9).empty());
  EXPECT_EQ(slabs.FreeBlocks(0), 8u);
  EXPECT_EQ(slabs.free_slabs(), 2u);
  EXPECT_EQ(slabs.held_bytes(0), 900u);
  EXPECT_EQ(slabs.shape_stats(0).peak_held_bytes, 900u);

  // A failed Alloc scans the partial list from the back (slab 1, then
  // slab 0) and leaves the slab it reached last first in line: the next
  // block comes from slab 0, as it did when the failure drained and then
  // rolled back every block. Dropping the failure's reorder would serve
  // slab 1 here.
  auto next = slabs.Alloc(0, 1);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].slab, 0u);
  // The failure acquired no slab, so the free-slab stack is as before:
  // slab 3 is still the next one handed out.
  auto other = slabs.Alloc(1, 1);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0].slab, 3u);
}

TEST(SlabAllocatorTest, EmptySlabsAreReclaimedForOtherShapes) {
  SlabAllocator slabs(200, 100);
  slabs.RegisterShape(0, 100);
  slabs.RegisterShape(1, 50);
  auto blocks = slabs.Alloc(0, 2);  // consumes both slabs
  EXPECT_EQ(slabs.Alloc(1, 1).size(), 0u);
  slabs.Free(blocks);
  EXPECT_EQ(slabs.free_slabs(), 2u);
  EXPECT_EQ(slabs.Alloc(1, 4).size(), 4u);  // shape 1 now fits
}

TEST(SlabAllocatorTest, BlocksAreUniqueAcrossShapes) {
  SlabAllocator slabs(10000, 1000);
  slabs.RegisterShape(0, 128);
  slabs.RegisterShape(1, 512);
  std::set<uint64_t> seen;
  auto a = slabs.Alloc(0, 20);
  auto b = slabs.Alloc(1, 10);
  for (const BlockRef& block : a) {
    EXPECT_TRUE(seen.insert(block.Packed()).second);
  }
  for (const BlockRef& block : b) {
    EXPECT_TRUE(seen.insert(block.Packed()).second);
  }
}

TEST(SlabAllocatorTest, FragmentationStatsTrackPeak) {
  SlabAllocator slabs(1000, 100);
  slabs.RegisterShape(0, 40);  // 2 blocks/slab, 20% slack per full slab
  auto blocks = slabs.Alloc(0, 3);  // 2 slabs held, 120 used of 200
  auto stats = slabs.shape_stats(0);
  EXPECT_EQ(stats.peak_held_bytes, 200u);
  EXPECT_EQ(stats.used_at_peak, 120u);
  EXPECT_NEAR(stats.FragmentationAtPeak(), 0.4, 1e-9);
  slabs.Free(blocks);
  EXPECT_EQ(slabs.shape_stats(0).used_bytes, 0u);
  // Peak statistics persist after frees.
  EXPECT_EQ(slabs.shape_stats(0).peak_held_bytes, 200u);
}

TEST(SlabAllocatorTest, BlocksComeOutInIndexOrderAndReuseLastFreedFirst) {
  // 4 blocks per slab. Fresh blocks go out 0, 1, 2, ...; freed blocks are
  // reused before fresh ones, last freed first; a drained slab is reclaimed
  // and a new acquire starts again at block 0 of the lowest free slab.
  SlabAllocator slabs(4 * 400, 400);
  ASSERT_TRUE(slabs.RegisterShape(0, 100));
  auto ref = [](uint32_t slab, uint32_t index) { return BlockRef{slab, index}; };
  std::vector<BlockRef> a = slabs.Alloc(0, 3);
  EXPECT_EQ(a, (std::vector<BlockRef>{ref(0, 0), ref(0, 1), ref(0, 2)}));
  slabs.FreeOne(ref(0, 0));
  slabs.FreeOne(ref(0, 2));
  std::vector<BlockRef> b = slabs.Alloc(0, 4);
  EXPECT_EQ(b, (std::vector<BlockRef>{ref(0, 2), ref(0, 0), ref(0, 3), ref(1, 0)}));
  std::vector<BlockRef> c;
  c.push_back(ref(9, 9));  // AllocInto appends after existing entries
  ASSERT_TRUE(slabs.AllocInto(0, 2, c));
  EXPECT_EQ(c, (std::vector<BlockRef>{ref(9, 9), ref(1, 1), ref(1, 2)}));
  EXPECT_FALSE(slabs.AllocInto(0, 100, c));
  EXPECT_EQ(c.size(), 3u);
  // Drain slab 0 entirely: it is reclaimed, then refilled from block 0.
  slabs.Free({ref(0, 0), ref(0, 1), ref(0, 2), ref(0, 3)});
  EXPECT_EQ(slabs.held_bytes(0), 400u);
  slabs.Free({ref(1, 0), ref(1, 1), ref(1, 2)});
  EXPECT_EQ(slabs.free_slabs(), slabs.total_slabs());
  std::vector<BlockRef> d = slabs.Alloc(0, 5);
  EXPECT_EQ(d, (std::vector<BlockRef>{ref(1, 0), ref(1, 1), ref(1, 2), ref(1, 3), ref(0, 0)}));
}

// Property test: random alloc/free cycles across several shapes preserve
// the allocator's core invariants.
class SlabPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlabPropertyTest, InvariantsHoldUnderRandomWorkload) {
  SlabAllocator slabs(64 * 1024, 4096);
  const std::vector<uint64_t> block_sizes = {128, 512, 800, 2048};
  for (size_t s = 0; s < block_sizes.size(); ++s) {
    ASSERT_TRUE(slabs.RegisterShape(static_cast<ShapeClassId>(s), block_sizes[s]));
  }
  Rng rng(GetParam());
  std::vector<std::pair<ShapeClassId, std::vector<BlockRef>>> live;
  std::set<uint64_t> outstanding;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      ShapeClassId shape = static_cast<ShapeClassId>(rng.UniformInt(block_sizes.size()));
      size_t count = 1 + rng.UniformInt(6);
      uint64_t free_before = slabs.FreeBlocks(shape);
      auto blocks = slabs.Alloc(shape, count);
      // FreeBlocks is exact: Alloc succeeds iff the request fits.
      ASSERT_EQ(!blocks.empty(), count <= free_before);
      if (!blocks.empty()) {
        ASSERT_EQ(slabs.FreeBlocks(shape), free_before - count);
        for (const BlockRef& block : blocks) {
          // No block is ever handed out twice.
          ASSERT_TRUE(outstanding.insert(block.Packed()).second);
        }
        live.emplace_back(shape, std::move(blocks));
      }
    } else {
      size_t victim = rng.UniformInt(live.size());
      for (const BlockRef& block : live[victim].second) {
        outstanding.erase(block.Packed());
      }
      slabs.Free(live[victim].second);
      live.erase(live.begin() + victim);
    }
    // used <= held, and held never exceeds the arena.
    ASSERT_LE(slabs.total_used_bytes(), slabs.total_held_bytes());
    ASSERT_LE(slabs.total_held_bytes(), 64u * 1024);
    // The running totals equal a recomputation over all shapes.
    uint64_t used = 0;
    uint64_t held = 0;
    for (ShapeClassId shape : slabs.shapes()) {
      used += slabs.used_bytes(shape);
      held += slabs.held_bytes(shape);
    }
    SlabAllocator::ShapeStats overall = slabs.overall_stats();
    ASSERT_EQ(overall.used_bytes, used);
    ASSERT_EQ(overall.held_bytes, held);
    ASSERT_LE(overall.used_at_peak, overall.peak_held_bytes);
    ASSERT_GE(overall.peak_held_bytes, held);
  }
  for (auto& [shape, blocks] : live) {
    slabs.Free(blocks);
  }
  EXPECT_EQ(slabs.total_used_bytes(), 0u);
  EXPECT_EQ(slabs.free_slabs(), slabs.total_slabs());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlabPropertyTest, ::testing::Values(1, 2, 3, 42, 1337));

// --- ModelCache -------------------------------------------------------------

TEST(ModelCacheTest, MissThenHit) {
  ModelCache cache(100e9, 10e9);
  auto first = cache.PrepareLoad(7, 30e9);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_DOUBLE_EQ(first.registry_fetch, 3.0);
  cache.Unpin(7);
  auto second = cache.PrepareLoad(7, 30e9);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.registry_fetch, 0.0);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ModelCacheTest, LruEviction) {
  ModelCache cache(100e9, 10e9);
  cache.Warm(0, 40e9);
  cache.Warm(1, 40e9);
  cache.Warm(0, 40e9);  // touch 0 -> 1 is now LRU
  cache.Warm(2, 40e9);  // evicts 1
  EXPECT_TRUE(cache.Resident(0));
  EXPECT_FALSE(cache.Resident(1));
  EXPECT_TRUE(cache.Resident(2));
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ModelCacheTest, PinnedEntriesSurviveEviction) {
  ModelCache cache(100e9, 10e9);
  cache.PrepareLoad(0, 60e9);  // pinned
  cache.Warm(1, 60e9);         // would need to evict 0, but it's pinned
  EXPECT_TRUE(cache.Resident(0));
  EXPECT_FALSE(cache.Resident(1));
  cache.Unpin(0);
  cache.Warm(1, 60e9);
  EXPECT_TRUE(cache.Resident(1));
  EXPECT_FALSE(cache.Resident(0));
}

TEST(ModelCacheTest, EvictionDemotesToSsdTier) {
  ModelCache cache(100e9, 10e9);
  cache.EnableSsdTier(/*ssd_capacity_bytes=*/200e9, /*ssd_bw_bytes_per_s=*/5e9);
  cache.Warm(0, 80e9);
  cache.Warm(1, 80e9);  // evicts 0 -> SSD
  EXPECT_FALSE(cache.Resident(0));
  EXPECT_TRUE(cache.OnSsd(0));
  // Reload of 0: SSD read (16 s at 5 GB/s), not a registry fetch (8 s at
  // 10 GB/s would be cheaper here, but the point is the path taken).
  auto plan = cache.Warm(0, 80e9);
  EXPECT_FALSE(plan.cache_hit);
  EXPECT_TRUE(plan.ssd_hit);
  EXPECT_DOUBLE_EQ(plan.registry_fetch, 16.0);
  EXPECT_EQ(cache.ssd_hits(), 1u);
}

TEST(ModelCacheTest, SsdTierEvictsLruWhenFull) {
  ModelCache cache(50e9, 10e9);
  cache.EnableSsdTier(100e9, 5e9);
  cache.Warm(0, 40e9);
  cache.Warm(1, 40e9);  // 0 -> SSD
  cache.Warm(2, 40e9);  // 1 -> SSD
  cache.Warm(3, 40e9);  // 2 -> SSD; SSD holds {1, 2}, 0 evicted from SSD
  EXPECT_FALSE(cache.OnSsd(0));
  EXPECT_TRUE(cache.OnSsd(1));
  EXPECT_TRUE(cache.OnSsd(2));
  EXPECT_LE(cache.ssd_used_bytes(), 100e9);
}

TEST(ModelCacheTest, SsdDisabledDropsEvictions) {
  ModelCache cache(100e9, 10e9);
  cache.Warm(0, 80e9);
  cache.Warm(1, 80e9);
  EXPECT_FALSE(cache.OnSsd(0));
  auto plan = cache.Warm(0, 80e9);
  EXPECT_FALSE(plan.ssd_hit);
  EXPECT_DOUBLE_EQ(plan.registry_fetch, 8.0);  // registry path
}

TEST(ModelCacheTest, OversizedLoadStreamsThrough) {
  ModelCache cache(10e9, 10e9);
  auto plan = cache.PrepareLoad(0, 20e9);
  EXPECT_FALSE(plan.cache_hit);
  EXPECT_DOUBLE_EQ(plan.registry_fetch, 2.0);
  EXPECT_FALSE(cache.Resident(0));  // too big to retain
  EXPECT_DOUBLE_EQ(cache.used_bytes(), 0.0);
}

}  // namespace
}  // namespace aegaeon
