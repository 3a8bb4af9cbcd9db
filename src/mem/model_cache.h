// The host-memory Model Cache of §5.2 ("Quick model loading").
//
// Raw tensor chunks of model checkpoints are cached in a shared host memory
// region. A cache hit loads weights GPU-ward at the optimized effective PCIe
// bandwidth via the per-GPU page-locked Stage Buffer; a miss falls back to
// an optional local SSD tier (ServerlessLLM-style multi-tier checkpoint
// storage) and finally to the remote registry (Figure 5) at network speed.
// DRAM evictions demote to the SSD tier instead of being dropped.
//
// This class makes placement/eviction decisions and reports fetch latencies;
// the engine's auto-scaler turns them into simulated transfers.

#ifndef AEGAEON_MEM_MODEL_CACHE_H_
#define AEGAEON_MEM_MODEL_CACHE_H_

#include <cstdint>
#include <list>
#include <map>

#include "model/registry.h"
#include "sim/time.h"

namespace aegaeon {

class ModelCache {
 public:
  // `capacity_bytes`: DRAM reserved for cached checkpoints.
  // `remote_bw_bytes_per_s`: bandwidth to the remote model registry.
  ModelCache(double capacity_bytes, double remote_bw_bytes_per_s);

  // Enables the local SSD tier: `ssd_capacity_bytes` of checkpoint storage
  // read at `ssd_bw_bytes_per_s` (NVMe-class).
  void EnableSsdTier(double ssd_capacity_bytes, double ssd_bw_bytes_per_s);

  struct LoadPlan {
    bool cache_hit = false;
    bool ssd_hit = false;
    // Time to bring the checkpoint into the Model Cache (0 on a DRAM hit;
    // an SSD read or a registry fetch otherwise).
    Duration registry_fetch = 0.0;
  };

  // Ensures `model`'s checkpoint (`bytes` large) is resident, evicting
  // least-recently-used unpinned entries as needed, and returns how long
  // residency takes to establish. Also bumps the entry's recency and pins it
  // until Unpin() (a model being copied to a GPU must not be evicted).
  LoadPlan PrepareLoad(ModelId model, double bytes);

  // Releases the loading pin taken by PrepareLoad.
  void Unpin(ModelId model);

  // Asynchronously warms the cache (used before serving starts and by the
  // prefetcher). Follows the same eviction policy; does not pin.
  LoadPlan Warm(ModelId model, double bytes);

  bool Resident(ModelId model) const { return entries_.count(model) > 0; }
  double used_bytes() const { return used_; }
  double capacity_bytes() const { return capacity_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t ssd_hits() const { return ssd_hits_; }
  bool OnSsd(ModelId model) const;
  double ssd_used_bytes() const { return ssd_used_; }

 private:
  struct Entry {
    double bytes = 0.0;
    int pins = 0;
    std::list<ModelId>::iterator lru_pos;
  };

  // Makes room for `bytes`; returns false if impossible (too many pins).
  bool EvictFor(double bytes);
  LoadPlan Insert(ModelId model, double bytes, bool pin);
  void Touch(ModelId model);
  // Writes an evicted checkpoint to the SSD tier (LRU within the tier).
  void DemoteToSsd(ModelId model, double bytes);

  double capacity_;
  double remote_bw_;
  double used_ = 0.0;
  // Ordered maps: eviction decisions must not depend on hash iteration
  // order (aegaeon_lint's unordered-container rule).
  std::map<ModelId, Entry> entries_;
  std::list<ModelId> lru_;  // front = most recent
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;

  // SSD tier (disabled until EnableSsdTier).
  double ssd_capacity_ = 0.0;
  double ssd_bw_ = 0.0;
  double ssd_used_ = 0.0;
  std::map<ModelId, double> ssd_entries_;  // model -> bytes
  std::list<ModelId> ssd_lru_;
  uint64_t ssd_hits_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_MEM_MODEL_CACHE_H_
