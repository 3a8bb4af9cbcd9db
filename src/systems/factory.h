// One factory for every serving system: a SystemSpec names a system by its
// config type, MakeServingSystem builds it, and SystemSpecFromName holds
// the only table from CLI/bench names to configs.

#ifndef AEGAEON_SYSTEMS_FACTORY_H_
#define AEGAEON_SYSTEMS_FACTORY_H_

#include <memory>
#include <string>
#include <variant>

#include "baselines/dedicated.h"
#include "baselines/muxserve.h"
#include "baselines/serverless_llm.h"
#include "baselines/unified.h"
#include "core/config.h"
#include "core/fleet.h"
#include "core/serving_system.h"
#include "hw/gpu_spec.h"
#include "model/registry.h"

namespace aegaeon {

// The config type selects the system: AegaeonConfig -> AegaeonCluster,
// FleetConfig -> ShardedFleet, ServerlessLlmConfig -> ServerlessLlmCluster,
// MuxServeConfig -> MuxServeCluster, DedicatedConfig -> DedicatedCluster,
// UnifiedConfig -> UnifiedCluster.
using SystemSpec = std::variant<AegaeonConfig, FleetConfig, ServerlessLlmConfig, MuxServeConfig,
                                DedicatedConfig, UnifiedConfig>;

// Builds the system `spec` selects. `registry` must outlive the system.
std::unique_ptr<ServingSystem> MakeServingSystem(const SystemSpec& spec,
                                                 const ModelRegistry& registry,
                                                 const GpuSpec& gpu);

// Sets `*spec` to the default config of a named system: aegaeon | sllm |
// sllm+ (oracle SJF) | mux | dedicated | unified-pf (prefill-first) |
// unified-df (decode-first). Returns false, leaving `*spec` alone, for any
// other name.
bool SystemSpecFromName(const std::string& name, SystemSpec* spec);

}  // namespace aegaeon

#endif  // AEGAEON_SYSTEMS_FACTORY_H_
