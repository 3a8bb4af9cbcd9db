// Tunable parameters of an Aegaeon deployment, with the paper's defaults.

#ifndef AEGAEON_CORE_CONFIG_H_
#define AEGAEON_CORE_CONFIG_H_

#include "engine/autoscaler.h"
#include "engine/components.h"
#include "hw/gpu_spec.h"
#include "serve/policy.h"
#include "sim/time.h"

namespace aegaeon {

// Software-aging drift (see "Characterizing Software Aging in GPU-Based
// LLM Serving"): long-running serving processes slow down (allocator and
// driver-state latency creep) and fragment their KV pools. Modeled as
// multiplicative factors growing linearly from `start`: execution latency
// scales by (1 + latency_rate * dt) and the usable decode KV budget
// shrinks by (1 + fragmentation_rate * dt), dt = max(0, now - start).
// Both rates default to 0, which leaves every computation bit-identical
// to an aging-free run.
struct AgingDriftConfig {
  double latency_rate = 0.0;        // fractional latency growth / sim second
  double fragmentation_rate = 0.0;  // fractional usable-KV shrink / sim second
  TimePoint start = 0.0;            // drift onset (process "boot" time)
};

struct AegaeonConfig {
  // GPU pool split (§7.2: 6 prefill + 10 decoding instances on 16 GPUs).
  int prefill_instances = 6;
  int decode_instances = 10;
  // Tensor-parallel degree of every instance (1 GPU per instance by
  // default; §7.4 uses TP=4).
  int instance_tp = 1;
  // Physical nodes the pool spans (Figure 5 shows a two-node deployment).
  // Instances are assigned to nodes contiguously; each node has its own
  // DRAM, model cache, and unified CPU KV cache. KV crossing nodes rides
  // the inter-node fabric at `internode_bw` and decode dispatch prefers
  // instances co-located with a request's KV.
  int nodes = 1;
  double internode_bw = 25e9;

  // Algorithm 1: maximum accumulated size of a prefill group.
  int max_group_size = 8;
  // Optional chunked prefill (Sarathi-style): prompts longer than this many
  // tokens are prefilled in chunks, so one giant prompt cannot block a
  // prefill instance for its whole duration. 0 disables chunking (the
  // paper's configuration — its prefills are sub-second anyway).
  int64_t prefill_chunk_tokens = 0;

  // Algorithm 2 constants: maximum quota (s) and the SLO-attainment floor.
  Duration qmax = 4.0;
  double alpha_floor = 0.5;

  // Maximum requests batched together for decoding, on top of the KV
  // capacity limit derived per Algorithm 2 line 2.
  int max_decode_batch = 32;
  // Context-length estimate used to derive the capacity batch limit
  // (ShareGPT-like traffic averages ~450 context tokens; the margin covers
  // the long tail).
  int64_t expected_context_tokens = 640;

  // --- Memory sizing (Figure 9's exemplar values) -----------------------
  // VRAM set aside for the self-managed weight buffer (running model plus,
  // when it fits, a prefetched next model — Figure 9's exemplar regions).
  // The split between weights and KV is a per-deployment choice: markets of
  // uniformly large models trade KV space for prefetch headroom (e.g.
  // 56 GiB / 20 GiB), while mixed markets favor KV capacity.
  double weight_buffer_bytes = 40.0 * kGiB;
  // VRAM set aside for the unified GPU KV cache.
  double gpu_kv_bytes = 30.0 * kGiB;
  // Host memory: unified CPU KV cache and the model (checkpoint) cache.
  double cpu_kv_bytes = 320.0 * kGiB;
  // Sized to hold the full market's checkpoints on a 2 TB node (Figure 9
  // shows 640 GB for a smaller exemplar deployment; ~90 mid-size models
  // need ~1.5 TB). Misses fall back to the remote registry.
  double model_cache_bytes = 1536.0 * kGiB;
  // Slab size for unified KV caches: small enough that low-traffic shapes
  // hold little excess (Figure 16's <20% fragmentation), large enough to
  // keep per-slab bookkeeping negligible.
  double slab_bytes = 64.0 * 1024 * 1024;
  int tokens_per_block = 16;

  // Bandwidth to the remote model registry (cache-miss path): parallel
  // object-store pulls over datacenter networking.
  double remote_registry_bw = 12.5e9;
  // Local NVMe tier for checkpoints evicted from the DRAM model cache
  // (ServerlessLLM-style multi-tier storage). Set capacity to 0 to disable.
  double ssd_cache_bytes = 4096.0 * kGiB;
  double ssd_bw = 5e9;

  // Auto-scaling optimization level (§5); the full system is T3.
  OptLevel opt_level = OptLevel::kFineGrainedSync;
  bool prefetch = true;
  // §8 hybrid multiplexing extension: number of models kept co-resident in
  // the weight buffer (1 = the paper's behavior; 2+ makes switches between
  // resident models near-free at the cost of prefetch/KV headroom).
  int resident_models = 1;

  // Modeled scheduler bookkeeping cost per scheduling decision (Fig. 14
  // "Control Overhead").
  Duration control_cost_per_decision = 0.0002;

  EngineCostModel engine_costs;

  // Overload-aware serving proxy (src/serve): admission control, per-model
  // fair queuing, load shedding, and failure-retry backoff. Disabled by
  // default — the arrival path is then exactly the pre-proxy one.
  ProxyPolicy proxy;

  // Software-aging drift of this cell (off by default). The fleet's fault
  // engine (ctrl/fault_plan.h) overrides this per cell via SetAgingDrift.
  AgingDriftConfig aging;
};

}  // namespace aegaeon

#endif  // AEGAEON_CORE_CONFIG_H_
