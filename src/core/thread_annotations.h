// Clang thread-safety capability annotations, plus the annotated
// synchronization primitives the rest of the tree locks with.
//
// The determinism and 1-vs-N contracts (DESIGN.md §8, §13) are only as
// strong as the lock discipline underneath them.  Runtime tools (TSan)
// sample interleavings; capability analysis proves the discipline at
// compile time: a member declared `LHG_GUARDED_BY(mu_)` cannot be read
// or written on any path that does not hold `mu_`, or the build fails.
//
// The macros expand to Clang's `capability` attribute family and to
// nothing on other compilers, so GCC builds are unaffected.  The
// analysis itself is enabled by `-DLHG_THREAD_SAFETY=ON` (the dev /
// asan-ubsan / tsan presets and the CI `lint` job), which adds
// `-Wthread-safety -Werror=thread-safety` under Clang.
//
// Why wrapper types: libstdc++'s `std::mutex` / `std::lock_guard` carry
// no capability attributes, so the analysis cannot see through them.
// `Mutex`, `MutexLock` and `CondVar` below are zero-cost annotated
// shims over the std primitives (`CondVar` uses
// `std::condition_variable_any`, whose wait path works with any
// BasicLockable — the wakeup path is not performance-sensitive
// anywhere in this tree).  Lock-free structures (atomics such as the
// ordered κ/λ tests' `failed` flag in connectivity.cc or the obs
// recording slabs) are outside capability analysis by design; their
// contracts are documented in place and policed by the determinism
// linter (scripts/lint_determinism.py) and TSan instead.

#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define LHG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LHG_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Type-level: this class is a lockable capability (e.g. a mutex).
#define LHG_CAPABILITY(x) LHG_THREAD_ANNOTATION(capability(x))

/// Type-level: RAII object that acquires in its ctor, releases in its dtor.
#define LHG_SCOPED_CAPABILITY LHG_THREAD_ANNOTATION(scoped_lockable)

/// Member: may only be accessed while holding the given capability.
#define LHG_GUARDED_BY(x) LHG_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the pointee is protected by the given capability.
#define LHG_PT_GUARDED_BY(x) LHG_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock freedom by construction).
#define LHG_ACQUIRED_BEFORE(...) \
  LHG_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define LHG_ACQUIRED_AFTER(...) \
  LHG_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function: caller must hold the capability (exclusively / shared).
#define LHG_REQUIRES(...) \
  LHG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define LHG_REQUIRES_SHARED(...) \
  LHG_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function: acquires / releases the capability.
#define LHG_ACQUIRE(...) LHG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define LHG_ACQUIRE_SHARED(...) \
  LHG_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define LHG_RELEASE(...) LHG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define LHG_RELEASE_SHARED(...) \
  LHG_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function: acquires the capability iff it returns the given value.
#define LHG_TRY_ACQUIRE(...) \
  LHG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function: caller must NOT hold the capability (re-entrancy guard).
#define LHG_EXCLUDES(...) LHG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function: returns a reference to the given capability.
#define LHG_RETURN_CAPABILITY(x) LHG_THREAD_ANNOTATION(lock_returned(x))

/// Runtime assertion that the capability is held (for fatal checks).
#define LHG_ASSERT_CAPABILITY(x) LHG_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch; every use must carry a justification comment
/// (DESIGN.md §13 escape-hatch policy).
#define LHG_NO_THREAD_SAFETY_ANALYSIS \
  LHG_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace lhg::core {

/// Annotated mutual-exclusion capability over `std::mutex`.
class LHG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LHG_ACQUIRE() { mu_.lock(); }
  void unlock() LHG_RELEASE() { mu_.unlock(); }
  bool try_lock() LHG_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII scoped lock over `Mutex` — the only sanctioned way to hold one.
class LHG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LHG_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() LHG_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with `Mutex`.  `wait` atomically releases
/// and reacquires the mutex, so callers keep the capability across the
/// call from the analysis' point of view — write waits as explicit
/// predicate loops (`while (!pred) cv.wait(mu);`) so the guarded reads
/// in the predicate sit visibly inside the locked region.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) LHG_REQUIRES(mu) { cv_.wait(mu); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace lhg::core
