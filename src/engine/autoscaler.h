// Preemptive model auto-scaling (§5): the staged scale-down + scale-up
// pipeline of Figure 7 (left), progressively optimized per Figures 8 and 10.
//
// Optimization levels map to the paper's ablation:
//   kBaseline        (T0): full engine re-initialization, naive weight load,
//                          blocking KV transfers, GC pass.
//   kComponentReuse  (T1): §5.1 — distributed executor, profiling results,
//                          tokenizer, pinned CPU KV pool, and misc engine
//                          state survive the switch; only GC, weight load,
//                          and KV transfers remain.
//   kExplicitMemory  (T2): §5.2 — bump-allocated VRAM removes the GC pass;
//                          stage-buffered, pipelined loading runs at the
//                          optimized PCIe efficiency; weight prefetching on
//                          a separate stream can hide the load entirely.
//   kFineGrainedSync (T3): §5.3 — KV transfers move off the critical path
//                          (event-synchronized, per-request), so the switch
//                          costs only the (often hidden) weight load.

#ifndef AEGAEON_ENGINE_AUTOSCALER_H_
#define AEGAEON_ENGINE_AUTOSCALER_H_

#include <string>
#include <vector>

#include "engine/components.h"
#include "hw/gpu_device.h"
#include "mem/bump_allocator.h"
#include "mem/model_cache.h"
#include "model/latency_model.h"
#include "model/registry.h"
#include "sim/time.h"

namespace aegaeon {

enum class OptLevel {
  kBaseline = 0,
  kComponentReuse = 1,
  kExplicitMemory = 2,
  kFineGrainedSync = 3,
};

std::string ToString(OptLevel level);

// Wall-clock spent in each stage of one preemptive switch. Stages that are
// off the critical path at the configured OptLevel still report their
// duration, with on_critical_path false recorded via the *_blocking flags.
struct ScaleBreakdown {
  Duration kv_out = 0.0;
  Duration gc = 0.0;
  Duration dist_exec = 0.0;
  Duration model_load = 0.0;
  Duration profile = 0.0;
  Duration kv_init = 0.0;
  Duration kv_in = 0.0;
  Duration misc = 0.0;
  bool kv_blocking = true;   // KV stages on the critical path?
  bool prefetch_hit = false;
};

struct ScaleResult {
  TimePoint ready_at = 0.0;     // when inference with the new model may start
  ScaleBreakdown breakdown;
  EventSim weights_loaded;      // completion of the weight copy
};

// One AutoScaler per serving instance. For tensor-parallel instances all
// ranks load their shards concurrently over their own PCIe links, so the
// primary GPU's link models the (symmetric) per-rank timing.
class AutoScaler {
 public:
  AutoScaler(GpuDevice& gpu, const LatencyModel& latency, ModelCache& model_cache,
             EngineCostModel costs, OptLevel level, double weight_buffer_bytes,
             double cpu_kv_pool_bytes);

  // Performs the scale-down of the current model (if any) and scale-up of
  // `target` starting at `now`. `kv_out_bytes` / `kv_in_bytes` are the KV
  // volumes that must leave/enter the GPU with the switch; at
  // kFineGrainedSync they are event-synchronized per request by the
  // TransferEngine instead and excluded from the critical path.
  ScaleResult ScaleTo(const DeployedModel& target, TimePoint now, double kv_out_bytes = 0.0,
                      double kv_in_bytes = 0.0);

  // Starts (or continues) prefetching `next` on the prefetch stream if the
  // optimization level and the weight-buffer headroom allow it. Returns the
  // predicted completion time (kTimeNever when prefetch is unavailable).
  TimePoint Prefetch(const DeployedModel& next, TimePoint now);

  // Estimated switch latency to `target` if issued now, for scheduler load
  // estimates (Appendix A.2, Eq. 4). Ignores transient queueing.
  Duration EstimateSwitch(const DeployedModel& target) const;

  // Marks the engine as booted (distributed executor, profiling results,
  // tokenizers, pinned KV pool all initialized before serving starts —
  // §5.1 "beforehand"). At kBaseline this is a no-op: the baseline rebuilds
  // everything on every switch.
  void BootBeforeServing() { engine_booted_ = true; }

  ModelId current_model() const { return current_model_; }
  ModelId prefetched_model() const { return prefetched_model_; }
  OptLevel level() const { return level_; }
  bool prefetch_enabled() const { return prefetch_enabled_; }
  void set_prefetch_enabled(bool on) { prefetch_enabled_ = on; }

  // --- Hybrid multiplexing (§8 extension) -------------------------------
  // Keep up to `count` models' weights resident in the buffer at once (LRU
  // evicted as space runs out); switching to a resident model costs only an
  // activation (no copy). count == 1 reproduces the paper's behavior.
  void set_resident_capacity(int count) { resident_capacity_ = count < 1 ? 1 : count; }
  int resident_capacity() const { return resident_capacity_; }
  size_t resident_count() const { return residents_.size(); }
  bool IsResident(ModelId model) const;
  uint64_t resident_hits() const { return resident_hits_; }

  // All switch latencies observed so far (Figure 15 left).
  const std::vector<Duration>& switch_latencies() const { return switch_latencies_; }
  uint64_t switches() const { return switch_latencies_.size(); }
  uint64_t prefetch_hits() const { return prefetch_hits_; }
  uint64_t prefetch_issued() const { return prefetch_issued_; }

 private:
  // True when the weight buffer can hold the running and prefetched models
  // simultaneously.
  bool PrefetchFits(const DeployedModel& running, const DeployedModel& next) const;

  GpuDevice& gpu_;
  const LatencyModel& latency_;
  ModelCache& model_cache_;
  EngineCostModel costs_;
  OptLevel level_;
  bool prefetch_enabled_;
  BumpAllocator weight_buffer_;
  double cpu_kv_pool_bytes_;

  ModelId current_model_ = kInvalidModel;
  double current_shard_bytes_ = 0.0;
  ModelId prefetched_model_ = kInvalidModel;
  double prefetched_shard_bytes_ = 0.0;
  EventSim prefetch_done_;
  bool engine_booted_ = false;

  struct Resident {
    ModelId id = kInvalidModel;
    double shard_bytes = 0.0;
    TimePoint last_use = 0.0;
  };
  // Evicts least-recently-used residents until `needed` more bytes fit.
  void EvictResidentsFor(double needed);
  void TouchResident(ModelId model, double shard, TimePoint now);
  double ResidentBytes() const;

  std::vector<Duration> switch_latencies_;
  uint64_t prefetch_hits_ = 0;
  uint64_t prefetch_issued_ = 0;

  int resident_capacity_ = 1;
  std::vector<Resident> residents_;
  uint64_t resident_hits_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_ENGINE_AUTOSCALER_H_
