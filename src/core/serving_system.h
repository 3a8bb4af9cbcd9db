// ServingSystem: the one interface every serving system implements, so a
// caller can build any of them from a SystemSpec (systems/factory.h), run
// it on a trace, and read its per-model report without knowing its type.
// The concrete systems are `final`, so code holding a concrete type keeps
// non-virtual calls.

#ifndef AEGAEON_CORE_SERVING_SYSTEM_H_
#define AEGAEON_CORE_SERVING_SYSTEM_H_

#include <vector>

#include "analysis/metrics.h"
#include "analysis/report.h"
#include "core/request.h"

namespace aegaeon {

class ServingSystem {
 public:
  virtual ~ServingSystem() = default;

  // Serves the whole trace to completion and returns run metrics.
  virtual RunMetrics Run(const std::vector<ArrivalEvent>& trace) = 0;
  // Per-model quality of the last Run (analysis/report.h).
  virtual std::vector<ModelReport> PerModelReport() const = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_CORE_SERVING_SYSTEM_H_
