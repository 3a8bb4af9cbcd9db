// An inference request and its recorded execution trace.

#ifndef AEGAEON_CORE_REQUEST_H_
#define AEGAEON_CORE_REQUEST_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/slo.h"
#include "kv/transfer_engine.h"
#include "model/registry.h"
#include "sim/time.h"

namespace aegaeon {

using RequestId = uint64_t;

enum class RequestPhase {
  kQueuedPrefill,
  kPrefilling,
  kQueuedDecode,
  kDecoding,
  kParked,  // preempted out of GPU KV (awaiting re-admission)
  kDone,
};

// Terminal decision of the serving proxy for requests it never dispatched
// (src/serve). kNone for every request when the proxy is disabled.
enum class ProxyOutcome : uint8_t {
  kNone = 0,      // dispatched to the backend (or proxy disabled)
  kRejected,      // turned away at arrival (admission control)
  kShed,          // evicted from the held queue under overload
  kTimedOut,      // held until its TTFT deadline became unreachable
};

struct Request {
  RequestId id = 0;
  ModelId model = kInvalidModel;
  int64_t prompt_tokens = 0;
  // Total generated tokens, including the first (prefill) token. In the
  // simulator this is the oracle output length sampled from the dataset.
  int64_t output_tokens = 1;
  TimePoint arrival = 0.0;

  RequestPhase phase = RequestPhase::kQueuedPrefill;

  // --- Serving-proxy state (src/serve; inert when the proxy is disabled) --
  // Scheduling priority: higher is more important; the proxy sheds the
  // lowest-priority held work first.
  int priority = 0;
  // Times this request was re-dispatched after being displaced by an
  // instance failure (each retry backs off exponentially).
  uint32_t dispatch_attempts = 0;
  // Output was capped by graceful degradation under sustained overload.
  bool degraded = false;
  ProxyOutcome proxy_outcome = ProxyOutcome::kNone;

  // --- Execution record -------------------------------------------------
  TimePoint prefill_start = kTimeUnset;
  TimePoint first_token_time = kTimeUnset;
  TimePoint completion = kTimeUnset;
  // Tokens generated so far (including the first token once prefilled).
  int64_t generated = 0;
  // Last time the request made decoding progress (used for wait accounting).
  TimePoint last_progress = kTimeUnset;
  // KV tokens billed against the decode unit's admission budget.
  int64_t billed_kv_tokens = 0;
  // Prompt tokens already processed (chunked prefill).
  int64_t prefilled_tokens = 0;
  // Per-token SLO accounting (§2.1): deadline of token k is
  // arrival + TTFT + k*TBT; met/total counted as tokens are produced.
  int64_t tokens_met = 0;

  // --- Latency breakdown (Figure 14) -------------------------------------
  Duration prefill_wait = 0.0;
  Duration prefill_exec = 0.0;
  Duration decode_wait = 0.0;
  Duration decode_exec = 0.0;
  Duration control_overhead = 0.0;
  Duration data_overhead = 0.0;

  // KV-cache state, managed by the serving system.
  KvHandle kv;

  int64_t remaining_tokens() const { return output_tokens - generated; }
  bool finished() const { return generated >= output_tokens; }

  // Total resident context length (prompt + generated so far).
  int64_t context_tokens() const { return prompt_tokens + generated; }
};

// One arrival in a workload trace.
struct ArrivalEvent {
  TimePoint time = 0.0;
  ModelId model = kInvalidModel;
  int64_t prompt_tokens = 0;
  int64_t output_tokens = 1;
  // Proxy shedding priority (higher = shed last); ignored without a proxy.
  int priority = 0;
};

// The request an arrival opens, numbered `id` by its serving system. Its
// arrival stays the client-observed time: dispatch delay (and a fleet
// failover's replay detour) surfaces as prefill wait / TTFT, not as a
// shifted arrival. Every request generates at least one token.
inline Request RequestFromArrival(const ArrivalEvent& event, RequestId id) {
  Request request;
  request.id = id;
  request.model = event.model;
  request.prompt_tokens = event.prompt_tokens;
  request.output_tokens = std::max<int64_t>(1, event.output_tokens);
  request.arrival = event.time;
  request.priority = event.priority;
  return request;
}

}  // namespace aegaeon

#endif  // AEGAEON_CORE_REQUEST_H_
