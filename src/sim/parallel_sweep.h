// ParallelSweep: fans independent simulation runs across the host's one
// executor (ShardGang, sim/thread_pool.h) and collects results in
// deterministic input order.
//
// A Map is one gang round: the calling thread is worker 0, and every worker
// takes task indices from a shared atomic cursor until the list runs out, so
// a slow task never leaves a worker idle behind a fixed split.
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
#include <cstddef>
#include <exception>
#include <functional>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/thread_pool.h"

namespace aegaeon {

class ParallelSweep {
 public:
  // `threads` <= 0 selects DefaultThreads().
  explicit ParallelSweep(int threads = 0);

  // Total workers including the thread that calls Map.
  int thread_count() const { return gang_.thread_count(); }

  // AEGAEON_SWEEP_THREADS override, else hardware_concurrency(), min 1.
  // Aborts with an error when the override is not an integer in [1, 1024].
  static int DefaultThreads();

  // Runs every task across the workers; blocks until all complete and
  // returns their results in input order. T must be default-constructible
  // and movable. If a task throws, the remaining tasks still run and the
  // first exception caught is rethrown here afterwards. Not reentrant: one
  // Map at a time per ParallelSweep.
  template <typename T>
  std::vector<T> Map(std::vector<std::function<T()>> tasks) {
    std::vector<T> results(tasks.size());
    std::atomic<size_t> cursor{0};
    // Set under error_mu during the round; read after it, when the gang's
    // completion handshake has ordered every worker's writes.
    Mutex error_mu;
    std::exception_ptr first_error;
    gang_.Run([&](int /*slice*/) {
      for (size_t i = cursor++; i < tasks.size(); i = cursor++) {
        try {
          results[i] = tasks[i]();
        } catch (...) {
          MutexLock lock(error_mu);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
      }
    });
    if (first_error) {
      std::rethrow_exception(first_error);
    }
    return results;
  }

 private:
  ShardGang gang_;
};

}  // namespace aegaeon

#endif  // AEGAEON_SIM_PARALLEL_SWEEP_H_
