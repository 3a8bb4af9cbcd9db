// KV-cache movement between GPUs and the unified CPU cache, with the
// fine-grained, event-based synchronization of §5.3.
//
// Data-dependency rules enforced here (Figure 10):
//   ❶ Inference requires the KV cache to be on the GPU: SwapIn returns the
//     completion event, and decoding admission queries it.
//   ❷ A new transfer requires its source blocks to have finished their last
//     transfer: each handle carries its last transfer event, and the next
//     transfer's stream waits on it (cudaStreamWaitEvent).
//   ❸ A new transfer requires its target blocks to be free of past
//     transfers: releases are routed through the caches' move lists, so
//     blocks cannot be re-allocated while a copy still touches them.

#ifndef AEGAEON_KV_TRANSFER_ENGINE_H_
#define AEGAEON_KV_TRANSFER_ENGINE_H_

#include <cstdint>
#include <vector>

#include "hw/cuda_sim.h"
#include "hw/gpu_device.h"
#include "kv/unified_cache.h"
#include "sim/time.h"

namespace aegaeon {

// Where a request's KV cache currently lives.
enum class KvLocation {
  kNone,  // not yet materialized (pre-prefill)
  kGpu,
  kCpu,
};

// Per-request KV cache state, owned by the serving layer. GPU-side blocks
// are per-rank *shards* (kv_heads / tp per GPU), while CPU-side blocks hold
// the full KV; the two therefore carry distinct shape classes.
struct KvHandle {
  ShapeClassId gpu_shape = 0;
  ShapeClassId cpu_shape = 0;
  int64_t tokens = 0;
  KvLocation location = KvLocation::kNone;
  GpuId gpu = 0;  // valid when location == kGpu
  // Physical node whose memory currently holds the blocks (multi-node
  // deployments migrate KV across the fabric when locality misses).
  int node = 0;
  // Owning request id (for diagnostics / SimSan ownership checks); -1 when
  // the handle is not bound to a request yet.
  int64_t owner = -1;
  std::vector<BlockRef> blocks;
  // Completion of the last transfer that wrote/read these blocks (rule ❷).
  EventSim last_transfer;

  ShapeClassId shape_in(const UnifiedKvCache& cache, bool cache_is_cpu) const {
    (void)cache;
    return cache_is_cpu ? cpu_shape : gpu_shape;
  }

  // Bytes moved across one GPU's PCIe link (its shard).
  double shard_bytes(const UnifiedKvCache& gpu_cache) const {
    return static_cast<double>(gpu_cache.BlockBytes(gpu_shape)) *
           static_cast<double>(gpu_cache.BlocksForTokens(tokens));
  }
};

class TransferEngine {
 public:
  struct Stats {
    uint64_t swap_outs = 0;
    uint64_t swap_ins = 0;
    double bytes_out = 0.0;
    double bytes_in = 0.0;
    // Control-plane time: index tracking and event manipulation (Fig. 14
    // "Control Overhead").
    Duration control_overhead = 0.0;

    // Pools another engine's counters (fleet aggregation across cells).
    Stats& operator+=(const Stats& other) {
      swap_outs += other.swap_outs;
      swap_ins += other.swap_ins;
      bytes_out += other.bytes_out;
      bytes_in += other.bytes_in;
      control_overhead += other.control_overhead;
      return *this;
    }
  };

  // `control_cost_per_op`: modeled CPU cost of updating unified-cache
  // indices and creating/sharing events for one transfer.
  explicit TransferEngine(Duration control_cost_per_op = 0.0005)
      : control_cost_per_op_(control_cost_per_op) {}

  // Offloads `handle` (resident on `gpu`'s cache `gpu_cache`) to `cpu_cache`.
  // Returns false if the CPU cache is out of blocks (caller must back off).
  // On success the handle points at CPU blocks and carries the D2H event.
  bool SwapOut(KvHandle& handle, GpuDevice& gpu, UnifiedKvCache& gpu_cache,
               UnifiedKvCache& cpu_cache, TimePoint now);

  // Brings `handle` (resident in `cpu_cache`) into `gpu`'s `gpu_cache`.
  // Honors rule ❷ via the handle's last transfer event. Returns false if
  // the GPU cache is out of blocks.
  bool SwapIn(KvHandle& handle, GpuDevice& gpu, UnifiedKvCache& gpu_cache,
              UnifiedKvCache& cpu_cache, TimePoint now);

  // Grows a GPU-resident handle by `extra_tokens` (decode appends KV). May
  // allocate additional blocks. Returns false on exhaustion.
  bool Extend(KvHandle& handle, UnifiedKvCache& gpu_cache, int64_t extra_tokens);

  // Releases the handle's blocks wherever they live, respecting rule ❸.
  void Release(KvHandle& handle, UnifiedKvCache& gpu_cache, UnifiedKvCache& cpu_cache);

  const Stats& stats() const { return stats_; }

 private:
  Duration control_cost_per_op_;
  Stats stats_;
};

}  // namespace aegaeon

#endif  // AEGAEON_KV_TRANSFER_ENGINE_H_
