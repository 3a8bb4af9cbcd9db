// Algorithm 2: batched weighted round-robin scheduling for the decoding
// phase (§4.3), including the quota formula of Equations (2) and (3).
//
// Each decoding instance rotates through a work list of per-model batches.
// At the start of a round, batch i receives a time quota
//
//     q_i = c / (n_i * (alpha - sum_k 1/n_k)),     n_k = d_k / t_k
//
// where t_k is the batch's per-step decode time, d_k its TBT target, and c
// the total auto-scaling overhead for the models in the list. alpha (the
// reciprocal of the round's estimated SLO attainment) is floored at 0.5 and
// includes a QMAX term that bounds each quota by QMAX * n_min / n_i.

#ifndef AEGAEON_CORE_DECODE_SCHEDULER_H_
#define AEGAEON_CORE_DECODE_SCHEDULER_H_

#include <vector>

#include "core/request.h"
#include "model/registry.h"
#include "sim/time.h"

namespace aegaeon {

// Inputs describing one batch in the work list for quota computation.
struct BatchQuotaInput {
  Duration step_time = 0.0;  // t_k: one decoding step for this batch
  Duration tbt = 0.1;        // d_k: the batch's TBT target
};

struct QuotaResult {
  std::vector<Duration> quotas;    // q_i per batch
  double alpha = 0.0;              // Eq. (3)
  double estimated_attainment = 1.0;  // min(1, 1/alpha)
};

// Equations (2) and (3). `switch_overhead_total` is c: the summed
// auto-scaling overhead of the models in the work list for this round.
// When the list has a single batch (or c == 0), every quota is qmax: there
// is nothing to rotate against, so the batch simply decodes.
QuotaResult ComputeQuotas(const std::vector<BatchQuotaInput>& batches,
                          Duration switch_overhead_total, Duration qmax,
                          double alpha_floor = 0.5);

// A batch of same-model decoding requests in an instance's work list.
struct DecodeBatch {
  ModelId model = kInvalidModel;
  std::vector<Request*> requests;

  int64_t TotalContextTokens() const {
    int64_t total = 0;
    for (const Request* r : requests) {
      total += r->context_tokens();
    }
    return total;
  }
};

// Stable-reorders the work list so batches of the same model are adjacent
// (Algorithm 2, line 6), preserving the first-appearance order of models.
void GroupBatchesByModel(std::vector<DecodeBatch>& work_list);

// Dispatch (Algorithm 2, line 2): picks the decoding instance with the
// smallest work-list size, first among the instances with `has_model` set
// and, only when there is none, among all. Ties break toward the lowest
// index. `work_list_sizes[i]` is the number of batches on instance i and
// `has_model[i]` whether instance i holds a non-full batch of the model.
int PickDecodeInstance(const std::vector<size_t>& work_list_sizes,
                       const std::vector<bool>& has_model);

}  // namespace aegaeon

#endif  // AEGAEON_CORE_DECODE_SCHEDULER_H_
