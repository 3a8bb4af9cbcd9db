#include "systems/factory.h"

#include <map>
#include <type_traits>

namespace aegaeon {

namespace {

// The config type -> system type map, one entry per SystemSpec member.
template <typename Config>
struct SystemFor;
template <> struct SystemFor<AegaeonConfig> { using type = AegaeonCluster; };
template <> struct SystemFor<FleetConfig> { using type = ShardedFleet; };
template <> struct SystemFor<ServerlessLlmConfig> { using type = ServerlessLlmCluster; };
template <> struct SystemFor<MuxServeConfig> { using type = MuxServeCluster; };
template <> struct SystemFor<DedicatedConfig> { using type = DedicatedCluster; };
template <> struct SystemFor<UnifiedConfig> { using type = UnifiedCluster; };

}  // namespace

std::unique_ptr<ServingSystem> MakeServingSystem(const SystemSpec& spec,
                                                 const ModelRegistry& registry,
                                                 const GpuSpec& gpu) {
  return std::visit(
      [&](const auto& config) -> std::unique_ptr<ServingSystem> {
        using System = typename SystemFor<std::decay_t<decltype(config)>>::type;
        return std::make_unique<System>(config, registry, gpu);
      },
      spec);
}

bool SystemSpecFromName(const std::string& name, SystemSpec* spec) {
  ServerlessLlmConfig sjf;
  sjf.sjf = true;
  UnifiedConfig decode_first;
  decode_first.policy = UnifiedPolicy::kDecodeFirst;
  const std::map<std::string, SystemSpec> names = {
      {"aegaeon", AegaeonConfig{}},
      {"sllm", ServerlessLlmConfig{}},
      {"sllm+", sjf},
      {"mux", MuxServeConfig{}},
      {"dedicated", DedicatedConfig{}},
      {"unified-pf", UnifiedConfig{}},
      {"unified-df", decode_first},
  };
  auto it = names.find(name);
  if (it != names.end()) {
    *spec = it->second;
  }
  return it != names.end();
}

}  // namespace aegaeon
