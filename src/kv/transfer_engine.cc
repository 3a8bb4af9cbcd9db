#include "kv/transfer_engine.h"

#include <cassert>
#include <utility>

#include "sanitizer/simsan.h"

namespace aegaeon {

bool TransferEngine::SwapOut(KvHandle& handle, GpuDevice& gpu, UnifiedKvCache& gpu_cache,
                             UnifiedKvCache& cpu_cache, TimePoint now) {
  assert(handle.location == KvLocation::kGpu);
  assert(handle.gpu == gpu.id());

  // Target blocks in the CPU cache. Allocation implicitly avoids move-listed
  // blocks (rule ❸) because those are still marked allocated.
  cpu_cache.Reclaim(now);
  std::vector<BlockRef> cpu_blocks = cpu_cache.AllocTokens(handle.cpu_shape, handle.tokens);
  if (cpu_blocks.empty() && handle.tokens > 0) {
    return false;
  }

  // Rule ❷: the new transfer reads the GPU blocks, so it must wait for the
  // last transfer involving them (e.g. their own swap-in). Each TP rank
  // offloads its shard over its own link; the primary GPU's link models the
  // (symmetric) per-rank timing.
  gpu.kv_out_stream().WaitEvent(handle.last_transfer);
  double bytes = handle.shard_bytes(gpu_cache);
  StreamSim::Span span =
      gpu.EnqueueOptimizedCopy(gpu.kv_out_stream(), now, bytes, CopyDir::kDeviceToHost);
  EventSim done = gpu.kv_out_stream().Record();

  // Shadow-check the copy while the source blocks are still live: it reads
  // the GPU shard and writes the freshly-allocated CPU blocks.
  simsan::NoteTransfer(&gpu_cache.slabs(), handle.blocks, &cpu_cache.slabs(), cpu_blocks,
                       &gpu.kv_out_stream(), now, span.start, span.end, handle.owner);

  // The GPU blocks are released once the copy stops reading them.
  gpu_cache.DeferFree(std::move(handle.blocks), done);

  handle.blocks = std::move(cpu_blocks);
  handle.location = KvLocation::kCpu;
  handle.last_transfer = done;

  stats_.swap_outs++;
  stats_.bytes_out += bytes;
  stats_.control_overhead += control_cost_per_op_;
  (void)span;
  return true;
}

bool TransferEngine::SwapIn(KvHandle& handle, GpuDevice& gpu, UnifiedKvCache& gpu_cache,
                            UnifiedKvCache& cpu_cache, TimePoint now) {
  assert(handle.location == KvLocation::kCpu);

  gpu_cache.Reclaim(now);
  std::vector<BlockRef> gpu_blocks = gpu_cache.AllocTokens(handle.gpu_shape, handle.tokens);
  if (gpu_blocks.empty() && handle.tokens > 0) {
    return false;
  }

  // Rule ❷: wait for the producing transfer (typically the prefill
  // instance's swap-out) before reading the CPU blocks. In the real system
  // this is cudaStreamWaitEvent on an IPC-shared event.
  gpu.kv_in_stream().WaitEvent(handle.last_transfer.IpcHandle());
  double bytes = static_cast<double>(gpu_cache.BlockBytes(handle.gpu_shape)) *
                 static_cast<double>(gpu_blocks.size());
  StreamSim::Span span =
      gpu.EnqueueOptimizedCopy(gpu.kv_in_stream(), now, bytes, CopyDir::kHostToDevice);
  EventSim done = gpu.kv_in_stream().Record();

  // Shadow-check the copy: it reads the CPU blocks and writes the GPU shard.
  simsan::NoteTransfer(&cpu_cache.slabs(), handle.blocks, &gpu_cache.slabs(), gpu_blocks,
                       &gpu.kv_in_stream(), now, span.start, span.end, handle.owner);

  // CPU blocks stay unavailable until the copy stops reading them (rule ❸).
  cpu_cache.DeferFree(std::move(handle.blocks), done);

  handle.blocks = std::move(gpu_blocks);
  handle.location = KvLocation::kGpu;
  handle.gpu = gpu.id();
  handle.last_transfer = done;

  stats_.swap_ins++;
  stats_.bytes_in += bytes;
  stats_.control_overhead += control_cost_per_op_;
  (void)span;
  return true;
}

bool TransferEngine::Extend(KvHandle& handle, UnifiedKvCache& gpu_cache, int64_t extra_tokens) {
  assert(handle.location == KvLocation::kGpu);
  assert(extra_tokens >= 0);
  int64_t have_blocks = static_cast<int64_t>(handle.blocks.size());
  int64_t need_blocks = gpu_cache.BlocksForTokens(handle.tokens + extra_tokens);
  if (need_blocks > have_blocks) {
    if (!gpu_cache.AllocTokensInto(handle.gpu_shape,
                                   (need_blocks - have_blocks) * gpu_cache.tokens_per_block(),
                                   handle.blocks)) {
      return false;
    }
  }
  handle.tokens += extra_tokens;
  return true;
}

void TransferEngine::Release(KvHandle& handle, UnifiedKvCache& gpu_cache,
                             UnifiedKvCache& cpu_cache) {
  switch (handle.location) {
    case KvLocation::kGpu:
      gpu_cache.DeferFree(std::move(handle.blocks), handle.last_transfer);
      break;
    case KvLocation::kCpu:
      cpu_cache.DeferFree(std::move(handle.blocks), handle.last_transfer);
      break;
    case KvLocation::kNone:
      break;
  }
  handle.blocks.clear();
  handle.tokens = 0;
  handle.location = KvLocation::kNone;
}

}  // namespace aegaeon
