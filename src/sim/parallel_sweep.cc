#include "sim/parallel_sweep.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

int ParallelSweep::ThreadsForNested(int intra) {
  return std::max(1, DefaultThreads() / std::max(1, intra));
}

ParallelSweep::ParallelSweep(int threads)
    : pool_(threads > 0 ? threads : DefaultThreads()) {}

void ParallelSweep::Run(std::vector<std::function<void()>> tasks) {
  for (auto& task : tasks) {
    pool_.Submit(std::move(task));
  }
  pool_.Wait();
}

}  // namespace aegaeon
