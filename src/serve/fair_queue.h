// Per-model weighted fair queuing for the serving proxy (start-time fair
// queuing, SFQ). Each model has a FIFO of held requests; dequeue order
// follows virtual start tags so that, under contention, models receive
// dispatch slots proportional to their weights regardless of how bursty any
// single model's arrivals are — the §3.1 fairness failure (one hot model on
// the market starving the long tail) cannot occur at the proxy.

#ifndef AEGAEON_SERVE_FAIR_QUEUE_H_
#define AEGAEON_SERVE_FAIR_QUEUE_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "core/request.h"
#include "model/registry.h"

namespace aegaeon {

class WeightedFairQueue {
 public:
  WeightedFairQueue(size_t model_count, double default_weight);

  // Weight must be > 0. Affects tags assigned after the call.
  void SetWeight(ModelId model, double weight);

  // Enqueues `request` at the back of its model's FIFO. `cost` is the
  // request's estimated service demand (seconds of prefill); tags advance by
  // cost/weight, so fairness is service-time-weighted, not merely
  // count-weighted.
  void Enqueue(Request* request, double cost);

  // Front of `model`'s FIFO, nullptr when empty.
  Request* Head(ModelId model) const;

  // Removes and returns the front of `model`'s FIFO (nullptr when empty),
  // advancing the queue's virtual time.
  Request* PopHead(ModelId model);

  // The model whose head request has the smallest virtual start tag among
  // models with work for which `eligible(model)` holds. Ties break toward
  // the lower model id (deterministic). kInvalidModel when none qualifies.
  ModelId MinTagModel(const std::function<bool(ModelId)>& eligible) const;

  // The lowest-priority held request (ties: youngest arrival, then highest
  // id). nullptr when empty. Used for load shedding.
  const Request* PeekLowestPriority() const;

  // Removes and returns the request PeekLowestPriority identifies.
  Request* EvictLowestPriority();

  // Model ids with at least one held request, ascending.
  std::vector<ModelId> NonEmptyModels() const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Entry {
    Request* request = nullptr;
    double start_tag = 0.0;
  };

  // Locates the lowest-priority entry; false when the queue is empty.
  bool FindLowestPriority(size_t* model, size_t* pos) const;

  std::vector<std::deque<Entry>> queues_;
  std::vector<double> weights_;
  std::vector<double> finish_tags_;  // per-model last virtual finish
  double virtual_time_ = 0.0;
  size_t size_ = 0;
};

}  // namespace aegaeon

#endif  // AEGAEON_SERVE_FAIR_QUEUE_H_
