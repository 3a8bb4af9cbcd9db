// ParallelSweep: fans independent simulation runs across a work-stealing
// thread pool and collects results in deterministic input order.
//
// Determinism contract: every task must construct the entirety of its
// simulation state (registry, trace, cluster) from explicit seeds inside the
// task body and share nothing mutable with other tasks. Under that contract
// the results are bit-identical to running the same tasks serially in input
// order — scheduling only changes *when* a task runs, never what it
// computes. Run results therefore must not include host wall-clock values
// (see SimPerfCounters, which is reported separately for this reason).
//
// Worker count: an explicit argument wins; otherwise the AEGAEON_SWEEP_THREADS
// environment variable (an invalid value aborts); otherwise
// std::thread::hardware_concurrency().

#ifndef AEGAEON_SIM_PARALLEL_SWEEP_H_
#define AEGAEON_SIM_PARALLEL_SWEEP_H_

#include <atomic>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/thread_pool.h"

namespace aegaeon {

class ParallelSweep {
 public:
  // `threads` <= 0 selects DefaultThreads().
  explicit ParallelSweep(int threads = 0);

  int thread_count() const { return pool_.size(); }

  // AEGAEON_SWEEP_THREADS override, else hardware_concurrency(), min 1.
  // Aborts with an error when the override is not an integer in [1, 1024].
  static int DefaultThreads();

  // Worker budget per sweep task when each task is itself `intra`-way
  // parallel (a sharded fleet run inside a sweep): the default budget
  // divided by the intra-run width, min 1. Keeps total thread count at the
  // core budget instead of multiplying the two levels of parallelism.
  static int ThreadsForNested(int intra);

  // Runs every task across the pool; blocks until all complete and returns
  // their results in input order. T must be default-constructible and
  // movable. If a task throws, the first exception is rethrown here after
  // all tasks have drained.
  template <typename T>
  std::vector<T> Map(std::vector<std::function<T()>> tasks) {
    std::vector<T> results(tasks.size());
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    // Annotated (core/thread_annotations.h) like every pool-shared mutex;
    // first_error is only written under it and only read after Wait().
    Mutex error_mu;
    for (size_t i = 0; i < tasks.size(); ++i) {
      pool_.Submit([&, i] {
        try {
          results[i] = tasks[i]();
        } catch (...) {
          MutexLock lock(error_mu);
          if (!failed.exchange(true)) {
            first_error = std::current_exception();
          }
        }
      });
    }
    pool_.Wait();
    if (failed.load()) {
      std::rethrow_exception(first_error);
    }
    return results;
  }

  // Convenience for side-effect-free fan-out without results.
  void Run(std::vector<std::function<void()>> tasks);

 private:
  ThreadPool pool_;
};

}  // namespace aegaeon

#endif  // AEGAEON_SIM_PARALLEL_SWEEP_H_
