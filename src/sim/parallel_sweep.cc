#include "sim/parallel_sweep.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "sim/parse_number.h"

namespace aegaeon {

namespace {

// Upper bound on an AEGAEON_SWEEP_THREADS override.
constexpr int kMaxThreads = 1024;

}  // namespace

int ParallelSweep::DefaultThreads() {
  if (const char* env = std::getenv("AEGAEON_SWEEP_THREADS")) {
    int parsed = 0;
    if (!ParseNumber(env, &parsed) || parsed <= 0 || parsed > kMaxThreads) {
      std::fprintf(stderr, "AEGAEON_SWEEP_THREADS='%s': expected an integer in [1, %d]\n", env,
                   kMaxThreads);
      std::abort();
    }
    return parsed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// One slice per worker; the gang runs min(threads, slices) of them.
ParallelSweep::ParallelSweep(int threads)
    : gang_(/*slices=*/threads > 0 ? threads : DefaultThreads(),
            /*threads=*/std::numeric_limits<int>::max()) {}

}  // namespace aegaeon
