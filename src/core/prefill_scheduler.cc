#include "core/prefill_scheduler.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace aegaeon {
namespace {

__int128 ToTicks(Duration d) { return static_cast<__int128>(std::ldexp(d, 64)); }

Duration FromTicks(__int128 t) { return std::ldexp(static_cast<double>(t), -64); }

}  // namespace

PrefillScheduler::PrefillScheduler(int instances, int max_group_size, Estimators estimators)
    : max_group_size_(max_group_size), est_(std::move(estimators)) {
  assert(instances > 0);
  queues_.resize(instances);
}

PrefillScheduler::Ticks PrefillScheduler::ExecTicks(const Request& request) const {
  return ToTicks(est_.exec_estimate(request));
}

PrefillScheduler::Ticks PrefillScheduler::SwitchTicks(ModelId from, ModelId to) const {
  return from == to ? 0 : ToTicks(est_.switch_estimate(from, to));
}

void PrefillScheduler::PopExhausted(InstanceQueue& queue) const {
  while (!queue.groups.empty() && queue.groups.front().pending.empty()) {
    ModelId retired = queue.groups.front().model;
    if (queue.groups.front().accumulated < max_group_size_) {
      queue.open_groups[retired]--;
    }
    queue.groups.pop_front();
    if (!queue.groups.empty()) {
      queue.switch_sum -= SwitchTicks(retired, queue.groups.front().model);
    }
  }
}

Duration PrefillScheduler::LoadEstimate(int i) const {
  const InstanceQueue& queue = queues_[i];
  if (queue.groups.empty()) {
    return 0.0;
  }
  Ticks head = SwitchTicks(est_.current_model(i), queue.groups.front().model);
  return FromTicks(head + queue.switch_sum + queue.exec_sum);
}

int PrefillScheduler::OnArrival(Request* request) {
  // Lines 4-8: prioritize an existing group for this model with room left.
  const ModelId model = request->model;
  for (size_t i = 0; i < queues_.size(); ++i) {
    InstanceQueue& queue = queues_[i];
    if (!queue.available || model >= queue.open_groups.size() ||
        queue.open_groups[model] == 0) {
      continue;
    }
    for (Group& group : queue.groups) {
      if (group.model == model && group.accumulated < max_group_size_) {
        group.pending.push_back(request);
        if (++group.accumulated == max_group_size_) {
          queue.open_groups[model]--;
        }
        queue.exec_sum += ExecTicks(*request);
        return static_cast<int>(i);
      }
    }
  }
  // Lines 9-13: new group on the least loaded available instance.
  int best = 0;
  Duration min_load = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < queues_.size(); ++i) {
    if (!queues_[i].available) {
      continue;
    }
    Duration load = LoadEstimate(static_cast<int>(i));
    if (load < min_load) {
      min_load = load;
      best = static_cast<int>(i);
    }
  }
  InstanceQueue& queue = queues_[best];
  if (!queue.groups.empty()) {
    queue.switch_sum += SwitchTicks(queue.groups.back().model, model);
  }
  queue.exec_sum += ExecTicks(*request);
  Group group;
  group.model = model;
  group.pending.push_back(request);
  group.accumulated = 1;
  queue.groups.push_back(std::move(group));
  if (max_group_size_ > 1) {
    if (model >= queue.open_groups.size()) {
      queue.open_groups.resize(model + 1, 0);
    }
    queue.open_groups[model]++;
  }
  return best;
}

Request* PrefillScheduler::NextJob(int i) {
  InstanceQueue& queue = queues_[i];
  PopExhausted(queue);
  if (queue.groups.empty()) {
    return nullptr;
  }
  Group& front = queue.groups.front();
  Request* request = front.pending.front();
  front.pending.pop_front();
  queue.exec_sum -= ExecTicks(*request);
  return request;
}

ModelId PrefillScheduler::UpcomingModel(int i) const {
  const InstanceQueue& queue = queues_[i];
  ModelId front_model = kInvalidModel;
  for (const Group& group : queue.groups) {
    if (group.pending.empty()) {
      continue;
    }
    if (front_model == kInvalidModel) {
      front_model = group.model;
      continue;
    }
    if (group.model != front_model) {
      return group.model;
    }
  }
  return kInvalidModel;
}

void PrefillScheduler::SetAvailable(int i, bool available) {
  queues_[i].available = available;
}

std::vector<Request*> PrefillScheduler::DrainQueue(int i) {
  InstanceQueue& queue = queues_[i];
  std::vector<Request*> drained;
  for (Group& group : queue.groups) {
    drained.insert(drained.end(), group.pending.begin(), group.pending.end());
  }
  queue.groups.clear();
  queue.open_groups.clear();
  queue.exec_sum = 0;
  queue.switch_sum = 0;
  return drained;
}

void PrefillScheduler::PushContinuation(int i, Request* request) {
  Group group;
  group.model = request->model;
  group.pending.push_back(request);
  group.accumulated = max_group_size_;  // no joins: this is a continuation
  InstanceQueue& queue = queues_[i];
  queue.exec_sum += ExecTicks(*request);
  // Drop exhausted front groups so "behind the front" means behind real work.
  PopExhausted(queue);
  if (queue.groups.empty()) {
    queue.groups.push_back(std::move(group));
    return;
  }
  // Splice between the front group and its successor, if any.
  auto pos = std::next(queue.groups.begin());
  ModelId front = queue.groups.front().model;
  queue.switch_sum += SwitchTicks(front, group.model);
  if (pos != queue.groups.end()) {
    queue.switch_sum += SwitchTicks(group.model, pos->model) - SwitchTicks(front, pos->model);
  }
  queue.groups.insert(pos, std::move(group));
}

bool PrefillScheduler::HasWork(int i) const {
  for (const Group& group : queues_[i].groups) {
    if (!group.pending.empty()) {
      return true;
    }
  }
  return false;
}

size_t PrefillScheduler::QueuedRequests(int i) const {
  size_t count = 0;
  for (const Group& group : queues_[i].groups) {
    count += group.pending.size();
  }
  return count;
}

}  // namespace aegaeon
