// Service-level objectives and per-token deadline accounting (§2.1, Fig. 3).
//
// SLO attainment is the percentage of token generation times that meet their
// deadlines: token 0 (the first token) is due TTFT after arrival, and token
// k > 0 is due TTFT + k*TBT after arrival. A delayed token does not shift
// later deadlines — early tokens are buffered, which is exactly the slack
// Aegaeon's decode scheduler exploits (§4.3).

#ifndef AEGAEON_CORE_SLO_H_
#define AEGAEON_CORE_SLO_H_

#include <cstdint>

#include "sim/time.h"

namespace aegaeon {

struct SloSpec {
  Duration ttft = 10.0;   // Time-To-First-Token target
  Duration tbt = 0.100;   // Time-Between-Tokens target

  // The paper's production SLO (§7.1): 10 s TTFT, 100 ms TBT.
  static SloSpec Chatbot() { return SloSpec{10.0, 0.100}; }

  // Uniformly scaled SLO (Figure 13 uses 0.5x / 0.3x / 0.2x).
  SloSpec Scaled(double factor) const { return SloSpec{ttft * factor, tbt * factor}; }

  // Deadline of token `index` (0-based) for a request arriving at `arrival`.
  TimePoint DeadlineFor(TimePoint arrival, int64_t index) const {
    return arrival + ttft + static_cast<double>(index) * tbt;
  }

  // Number of `count` consecutive tokens, the first of index `first_index`,
  // that meet their deadlines when token j (0-based within the run) is
  // produced at `start + (j + 1) * step`. Equal to testing each token with
  // DeadlineFor, as CountMetTokensSlow does.
  //
  // A token's lateness is affine in j, so when the first and last tokens
  // both beat, or both miss, their deadlines by more than kSlack, every
  // token between does too, and the answer is count or 0 in O(1). kSlack
  // dwarfs the rounding error of these sums (~1e-11 s at sim times of
  // 1e5 s), so the shortcut never disagrees with the per-token test.
  int64_t CountMetTokens(TimePoint arrival, int64_t first_index, TimePoint start, Duration step,
                         int64_t count) const {
    if (count <= 0) {
      return 0;
    }
    constexpr Duration kSlack = 1e-6;
    const Duration first_late = start + step - DeadlineFor(arrival, first_index);
    const Duration last_late = start + static_cast<double>(count) * step -
                               DeadlineFor(arrival, first_index + count - 1);
    if (first_late < -kSlack && last_late < -kSlack) {
      return count;
    }
    if (first_late > kSlack && last_late > kSlack) {
      return 0;
    }
    return CountMetTokensSlow(arrival, first_index, start, step, count);
  }

  // The per-token reference for CountMetTokens.
  int64_t CountMetTokensSlow(TimePoint arrival, int64_t first_index, TimePoint start,
                             Duration step, int64_t count) const {
    int64_t met = 0;
    for (int64_t j = 0; j < count; ++j) {
      TimePoint token_time = start + static_cast<double>(j + 1) * step;
      if (token_time <= DeadlineFor(arrival, first_index + j)) {
        ++met;
      }
    }
    return met;
  }
};

}  // namespace aegaeon

#endif  // AEGAEON_CORE_SLO_H_
