#include "core/decode_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

namespace aegaeon {

QuotaResult ComputeQuotas(const std::vector<BatchQuotaInput>& batches,
                          Duration switch_overhead_total, Duration qmax, double alpha_floor) {
  QuotaResult result;
  const size_t n = batches.size();
  result.quotas.assign(n, qmax);
  if (n == 0) {
    return result;
  }
  const double c = switch_overhead_total;
  if (n == 1 || c <= 0.0) {
    // Nothing to rotate against: the batch just decodes for up to QMAX.
    result.alpha = alpha_floor;
    result.estimated_attainment = 1.0;
    return result;
  }

  double inv_n_sum = 0.0;
  double n_min = std::numeric_limits<double>::infinity();
  std::vector<double> n_k(n);
  for (size_t i = 0; i < n; ++i) {
    assert(batches[i].step_time > 0.0);
    // n_k = d / t_k: decode steps per TBT deadline; clamp at 1 (a batch
    // whose step time exceeds its deadline earns no slack).
    n_k[i] = std::max(1.0, batches[i].tbt / batches[i].step_time);
    inv_n_sum += 1.0 / n_k[i];
    n_min = std::min(n_min, n_k[i]);
  }

  // Eq. (3).
  double alpha = std::max(c / (n_min * qmax) + inv_n_sum, alpha_floor);
  result.alpha = alpha;
  result.estimated_attainment = std::min(1.0, 1.0 / alpha);

  // Eq. (2). alpha >= c/(n_min*qmax) + inv_n_sum implies the denominator is
  // strictly positive and q_i <= qmax * n_min / n_i <= qmax.
  double slack = alpha - inv_n_sum;
  assert(slack > 0.0);
  for (size_t i = 0; i < n; ++i) {
    result.quotas[i] = c / (n_k[i] * slack);
  }
  return result;
}

void GroupBatchesByModel(std::vector<DecodeBatch>& work_list) {
  // std::map (not unordered): grouping feeds the round-robin rotation, so
  // iteration/lookup behavior must be deterministic across platforms.
  std::map<ModelId, size_t> first_seen;
  for (size_t i = 0; i < work_list.size(); ++i) {
    first_seen.try_emplace(work_list[i].model, i);
  }
  std::stable_sort(work_list.begin(), work_list.end(),
                   [&first_seen](const DecodeBatch& a, const DecodeBatch& b) {
                     return first_seen.at(a.model) < first_seen.at(b.model);
                   });
}

int PickDecodeInstance(const std::vector<size_t>& work_list_sizes,
                       const std::vector<bool>& has_model) {
  assert(!work_list_sizes.empty());
  assert(work_list_sizes.size() == has_model.size());
  int best = -1;
  // First preference: instances with a non-full batch of this model
  // (`has_model`), where the request joins that batch instead of adding a
  // model to some round's rotation. An instance whose batches of the model
  // are all full is not preferred: the request would start a new batch
  // there, so it competes on work-list size like any other instance.
  for (size_t i = 0; i < work_list_sizes.size(); ++i) {
    if (!has_model[i]) {
      continue;
    }
    if (best < 0 || work_list_sizes[i] < work_list_sizes[best]) {
      best = static_cast<int>(i);
    }
  }
  if (best >= 0) {
    return best;
  }
  for (size_t i = 0; i < work_list_sizes.size(); ++i) {
    if (best < 0 || work_list_sizes[i] < work_list_sizes[best]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace aegaeon
