// Tests for the unified KV caches and the fine-grained transfer engine
// (§5.2 "Unified KV cache", §5.3 synchronization rules ❶❷❸).

#include <gtest/gtest.h>

#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "kv/transfer_engine.h"
#include "kv/unified_cache.h"
#include "model/model_spec.h"

namespace aegaeon {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;

UnifiedKvCache MakeCache(const char* name, uint64_t capacity_mb = 1024,
                         uint64_t slab_mb = 64) {
  return UnifiedKvCache(name, capacity_mb * kMiB, slab_mb * kMiB, /*tokens_per_block=*/16);
}

TEST(UnifiedKvCacheTest, IdenticalShapesShareAClass) {
  UnifiedKvCache cache = MakeCache("c");
  ShapeClassId a = cache.RegisterShape(ModelSpec::Qwen7B().kv_shape(), 2);
  ShapeClassId b = cache.RegisterShape(ModelSpec::Qwen7B().kv_shape(), 2);
  ShapeClassId c = cache.RegisterShape(ModelSpec::Llama13B().kv_shape(), 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(UnifiedKvCacheTest, BlockBytesMatchTable1Geometry) {
  UnifiedKvCache cache = MakeCache("c");
  ShapeClassId qwen = cache.RegisterShape(ModelSpec::Qwen7B().kv_shape(), 2);
  // 512 KB/token * 16 tokens per block = 8 MiB.
  EXPECT_EQ(cache.BlockBytes(qwen), 16u * 512 * 1024);
}

TEST(UnifiedKvCacheTest, BlocksForTokensRoundsUp) {
  UnifiedKvCache cache = MakeCache("c");
  EXPECT_EQ(cache.BlocksForTokens(0), 0);
  EXPECT_EQ(cache.BlocksForTokens(1), 1);
  EXPECT_EQ(cache.BlocksForTokens(16), 1);
  EXPECT_EQ(cache.BlocksForTokens(17), 2);
}

TEST(UnifiedKvCacheTest, DeferredFreeUnavailableUntilEventCompletes) {
  // Rule ❸: blocks touched by an in-flight transfer are not reallocated.
  UnifiedKvCache cache("c", 64 * kMiB, 64 * kMiB, 16);  // exactly one slab
  ShapeClassId shape = cache.RegisterShape(ModelSpec::InternLm2_7B().kv_shape(), 2);
  auto blocks = cache.AllocTokens(shape, 16 * 32);  // the whole slab
  ASSERT_FALSE(blocks.empty());

  StreamSim stream("copy");
  stream.Enqueue(0.0, 5.0);
  cache.DeferFree(blocks, stream.Record());

  // Before the transfer completes: allocation fails even after Reclaim.
  cache.Reclaim(2.0);
  EXPECT_TRUE(cache.AllocTokens(shape, 16).empty());
  EXPECT_EQ(cache.move_list_size(), 1u);

  // After completion: reclaimed and allocatable again.
  EXPECT_GT(cache.Reclaim(5.0), 0u);
  EXPECT_FALSE(cache.AllocTokens(shape, 16).empty());
  EXPECT_EQ(cache.move_list_size(), 0u);
}

TEST(UnifiedKvCacheTest, FreeTokensTracksCapacity) {
  UnifiedKvCache cache("c", 128 * kMiB, 64 * kMiB, 16);
  ShapeClassId shape = cache.RegisterShape(ModelSpec::InternLm2_7B().kv_shape(), 2);
  int64_t total = cache.FreeTokens(shape);
  EXPECT_GT(total, 0);
  auto blocks = cache.AllocTokens(shape, 160);
  EXPECT_EQ(cache.FreeTokens(shape), total - 160);
  cache.Free(blocks);
  EXPECT_EQ(cache.FreeTokens(shape), total);
}

TEST(UnifiedKvCacheTest, FreeTokensIsExactWhenSlabsHaveSlack) {
  // 192 KB/token at fp16 and 16 tokens per block: 3 MiB blocks, so a 64 MiB
  // slab holds 21 blocks and 1 MiB of slack.
  UnifiedKvCache cache("c", 256 * kMiB, 64 * kMiB, 16);
  KvShape shape{/*layers=*/24, /*kv_heads=*/16, /*head_dim=*/128};
  ShapeClassId id = cache.RegisterShape(shape, 2);
  ASSERT_EQ(cache.BlockBytes(id), 3 * kMiB);
  EXPECT_EQ(cache.FreeTokens(id), 4 * 21 * 16);
  auto blocks = cache.AllocTokens(id, 43 * 16);  // three slabs held
  EXPECT_EQ(cache.FreeTokens(id), 41 * 16);
  EXPECT_TRUE(cache.AllocTokens(id, 41 * 16 + 1).empty());
  EXPECT_EQ(cache.AllocTokens(id, 41 * 16).size(), 41u);
  EXPECT_EQ(cache.FreeTokens(id), 0);
}

// --- TransferEngine ---------------------------------------------------------

class TransferEngineTest : public ::testing::Test {
 protected:
  TransferEngineTest()
      : gpu_(0, GpuSpec::H800()),
        gpu2_(1, GpuSpec::H800()),
        gpu_cache_(MakeCache("gpu")),
        gpu2_cache_(MakeCache("gpu2")),
        cpu_cache_(MakeCache("cpu", 4096)) {
    shape_ = gpu_cache_.RegisterShape(ModelSpec::Qwen7B().kv_shape(), 2);
    ShapeClassId s2 = gpu2_cache_.RegisterShape(ModelSpec::Qwen7B().kv_shape(), 2);
    ShapeClassId sc = cpu_cache_.RegisterShape(ModelSpec::Qwen7B().kv_shape(), 2);
    EXPECT_EQ(shape_, s2);
    EXPECT_EQ(shape_, sc);
  }

  KvHandle MakeGpuHandle(int64_t tokens) {
    KvHandle handle;
    handle.gpu_shape = shape_;
    handle.cpu_shape = shape_;
    handle.tokens = tokens;
    handle.blocks = gpu_cache_.AllocTokens(shape_, tokens);
    handle.location = KvLocation::kGpu;
    handle.gpu = gpu_.id();
    return handle;
  }

  GpuDevice gpu_;
  GpuDevice gpu2_;
  UnifiedKvCache gpu_cache_;
  UnifiedKvCache gpu2_cache_;
  UnifiedKvCache cpu_cache_;
  TransferEngine xfer_;
  ShapeClassId shape_ = 0;
};

TEST_F(TransferEngineTest, SwapOutMovesHandleToCpu) {
  KvHandle handle = MakeGpuHandle(64);
  ASSERT_TRUE(xfer_.SwapOut(handle, gpu_, gpu_cache_, cpu_cache_, 0.0));
  EXPECT_EQ(handle.location, KvLocation::kCpu);
  EXPECT_FALSE(handle.blocks.empty());
  EXPECT_GT(handle.last_transfer.complete_at(), 0.0);
  EXPECT_EQ(xfer_.stats().swap_outs, 1u);
  // The GPU blocks sit in the move list until the copy finishes.
  EXPECT_EQ(gpu_cache_.move_list_size(), 1u);
  gpu_cache_.Reclaim(handle.last_transfer.complete_at());
  EXPECT_EQ(gpu_cache_.move_list_size(), 0u);
}

TEST_F(TransferEngineTest, SwapInWaitsForSwapOut) {
  // Rule ❷: the decode instance's swap-in must wait for the prefill
  // instance's swap-out of the same blocks.
  KvHandle handle = MakeGpuHandle(2048);
  ASSERT_TRUE(xfer_.SwapOut(handle, gpu_, gpu_cache_, cpu_cache_, 0.0));
  TimePoint out_done = handle.last_transfer.complete_at();
  EXPECT_GT(out_done, 0.0);

  // Swap-in submitted immediately on another GPU, long before the swap-out
  // completes: the H2D copy must start no earlier than the D2H finishes.
  ASSERT_TRUE(xfer_.SwapIn(handle, gpu2_, gpu2_cache_, cpu_cache_, 0.0));
  EXPECT_EQ(handle.location, KvLocation::kGpu);
  EXPECT_EQ(handle.gpu, gpu2_.id());
  EXPECT_GE(handle.last_transfer.complete_at(), 2.0 * out_done - 1e-9);
}

TEST_F(TransferEngineTest, InferenceGatesOnSwapInEvent) {
  // Rule ❶: decoding may only start once the KV cache is on the GPU.
  KvHandle handle = MakeGpuHandle(4096);
  xfer_.SwapOut(handle, gpu_, gpu_cache_, cpu_cache_, 0.0);
  xfer_.SwapIn(handle, gpu2_, gpu2_cache_, cpu_cache_, 0.0);
  TimePoint ready = handle.last_transfer.complete_at();
  EXPECT_FALSE(handle.last_transfer.Query(ready * 0.5));
  EXPECT_TRUE(handle.last_transfer.Query(ready));
}

TEST_F(TransferEngineTest, SwapOutFailsWhenCpuCacheFull) {
  UnifiedKvCache tiny_cpu("tiny", 64 * kMiB, 64 * kMiB, 16);
  tiny_cpu.RegisterShape(ModelSpec::Qwen7B().kv_shape(), 2);
  KvHandle big = MakeGpuHandle(16 * 64);  // needs 4 slabs worth
  EXPECT_FALSE(xfer_.SwapOut(big, gpu_, gpu_cache_, tiny_cpu, 0.0));
  // Handle untouched on failure.
  EXPECT_EQ(big.location, KvLocation::kGpu);
  EXPECT_FALSE(big.blocks.empty());
}

TEST_F(TransferEngineTest, ExtendAllocatesOnlyWhenCrossingBlocks) {
  KvHandle handle = MakeGpuHandle(20);  // 2 blocks (32 token capacity)
  size_t before = handle.blocks.size();
  EXPECT_TRUE(xfer_.Extend(handle, gpu_cache_, 10));  // 30 <= 32
  EXPECT_EQ(handle.blocks.size(), before);
  EXPECT_TRUE(xfer_.Extend(handle, gpu_cache_, 10));  // 40 > 32
  EXPECT_GT(handle.blocks.size(), before);
  EXPECT_EQ(handle.tokens, 40);
}

TEST_F(TransferEngineTest, ReleaseRoutesThroughMoveLists) {
  KvHandle handle = MakeGpuHandle(64);
  xfer_.SwapOut(handle, gpu_, gpu_cache_, cpu_cache_, 0.0);
  xfer_.Release(handle, gpu_cache_, cpu_cache_);
  EXPECT_EQ(handle.location, KvLocation::kNone);
  EXPECT_TRUE(handle.blocks.empty());
  EXPECT_GE(cpu_cache_.move_list_size(), 1u);
}

TEST_F(TransferEngineTest, ControlOverheadAccumulates) {
  KvHandle handle = MakeGpuHandle(64);
  xfer_.SwapOut(handle, gpu_, gpu_cache_, cpu_cache_, 0.0);
  xfer_.SwapIn(handle, gpu2_, gpu2_cache_, cpu_cache_, 0.0);
  EXPECT_NEAR(xfer_.stats().control_overhead, 2 * 0.0005, 1e-12);
  EXPECT_GT(xfer_.stats().bytes_out, 0.0);
  EXPECT_GT(xfer_.stats().bytes_in, 0.0);
}

}  // namespace
}  // namespace aegaeon
