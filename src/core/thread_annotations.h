// Clang Thread Safety Analysis shim: the annotation macros (GUARDED_BY,
// REQUIRES, EXCLUDES, ...) plus small annotated wrappers over std::mutex /
// std::condition_variable_any, so the locking discipline of the host's one
// executor (ShardGang in sim/thread_pool.*, which runs both ParallelSweep and
// the sharded fleet) and of the fleet's shared counters (core/fleet.*) is
// machine-checked. The `thread-safety` CI job compiles with clang and
// -Werror=thread-safety (-DAEGAEON_THREAD_SAFETY=ON); under GCC the
// attributes expand to nothing and the wrappers are zero-cost sugar.
//
// Why wrappers instead of annotating std::mutex directly: libstdc++'s
// std::mutex / std::lock_guard carry no capability attributes, so the
// analysis cannot see acquisitions made through them. Mutex/MutexLock are
// the annotated equivalents; CondVar wraps std::condition_variable_any
// (which accepts any BasicLockable, i.e. our Mutex) and declares the
// caller-holds-the-lock contract with REQUIRES.

#ifndef AEGAEON_CORE_THREAD_ANNOTATIONS_H_
#define AEGAEON_CORE_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>
#include <utility>

#if defined(__clang__) && defined(__has_attribute)
#define AEGAEON_TSA(x) __attribute__((x))
#else
#define AEGAEON_TSA(x)
#endif

#define CAPABILITY(x) AEGAEON_TSA(capability(x))
#define SCOPED_CAPABILITY AEGAEON_TSA(scoped_lockable)
#define GUARDED_BY(x) AEGAEON_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) AEGAEON_TSA(pt_guarded_by(x))
#define ACQUIRE(...) AEGAEON_TSA(acquire_capability(__VA_ARGS__))
#define RELEASE(...) AEGAEON_TSA(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) AEGAEON_TSA(try_acquire_capability(__VA_ARGS__))
#define REQUIRES(...) AEGAEON_TSA(requires_capability(__VA_ARGS__))
#define EXCLUDES(...) AEGAEON_TSA(locks_excluded(__VA_ARGS__))
#define RETURN_CAPABILITY(x) AEGAEON_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS AEGAEON_TSA(no_thread_safety_analysis)

namespace aegaeon {

// An annotated std::mutex. BasicLockable (lower-case lock/unlock), so it
// also works as the Lock argument of std::condition_variable_any.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Scoped acquisition (the std::lock_guard of Mutex).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable over Mutex. Every wait declares that the caller holds
// the mutex; the temporary release inside std::condition_variable_any is
// invisible to the analysis (by design — the lock is held again when the
// wait returns, which is all callers may rely on).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace aegaeon

#endif  // AEGAEON_CORE_THREAD_ANNOTATIONS_H_
