#include "sim/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace aegaeon {

ShardGang::ShardGang(int slices, int threads)
    : slices_(std::max(slices, 1)),
      workers_(std::max(1, std::min(std::max(threads, 1), std::max(slices, 1)))),
      wait_seconds_(static_cast<size_t>(workers_), 0.0) {
  threads_.reserve(static_cast<size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ShardGang::~ShardGang() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  round_cv_.NotifyAll();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ShardGang::RunSlices(int worker, const SliceFn& fn, const std::vector<uint8_t>* mask) {
  for (int s = worker; s < slices_; s += workers_) {
    if (mask == nullptr || (*mask)[static_cast<size_t>(s)] != 0) {
      fn(s);
    }
  }
}

void ShardGang::Run(const SliceFn& fn, const std::vector<uint8_t>* mask) {
  if (workers_ == 1) {
    // Single worker: a round is a plain loop on the calling thread.
    RunSlices(0, fn, mask);
    return;
  }
  {
    MutexLock lock(mu_);
    fn_ = &fn;
    mask_ = mask;
    running_ = workers_ - 1;
    ++round_;  // advancing the counter flips the sense every sleeper tests
  }
  round_cv_.NotifyAll();
  RunSlices(0, fn, mask);
  // Coordinator's barrier wait: time blocked on stragglers, for the
  // barrier_wait_seconds perf counter.
  // LINT-ALLOW(wall-clock): host-side barrier-wait SimPerf timing only
  const auto start = std::chrono::steady_clock::now();
  MutexLock lock(mu_);
  while (running_ != 0) {
    done_cv_.Wait(mu_);
  }
  wait_seconds_[0] +=
      // LINT-ALLOW(wall-clock): host-side barrier-wait SimPerf timing only
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double ShardGang::worker_wait_seconds(int worker) const {
  MutexLock lock(mu_);
  return wait_seconds_[static_cast<size_t>(worker)];
}

void ShardGang::WorkerLoop(int worker) {
  uint64_t served = 0;
  for (;;) {
    const SliceFn* fn = nullptr;
    const std::vector<uint8_t>* mask = nullptr;
    {
      // LINT-ALLOW(wall-clock): host-side barrier-wait SimPerf timing only
      const auto start = std::chrono::steady_clock::now();
      MutexLock lock(mu_);
      while (!stop_ && round_ == served) {
        round_cv_.Wait(mu_);
      }
      wait_seconds_[static_cast<size_t>(worker)] +=
          // LINT-ALLOW(wall-clock): host-side barrier-wait SimPerf timing only
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      if (stop_) {
        return;
      }
      served = round_;
      fn = fn_;
      mask = mask_;
    }
    RunSlices(worker, *fn, mask);
    {
      MutexLock lock(mu_);
      if (--running_ == 0) {
        done_cv_.NotifyOne();  // exactly one waiter: the coordinator
      }
    }
  }
}

}  // namespace aegaeon
