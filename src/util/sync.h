// Annotated synchronization primitives: the repo's only sanctioned
// mutex/condition-variable layer.
//
// Every lock in the library goes through these wrappers so that Clang's
// thread-safety analysis (-Wthread-safety, the capability system behind
// abseil's GUARDED_BY/REQUIRES) can prove lock discipline at compile
// time, for *all* schedules — not just the interleavings a TSan run
// happens to observe. Under GCC (or any non-Clang compiler) every
// annotation macro expands to nothing and the wrappers are zero-cost
// shims over the std primitives, so the tier-1 GCC build is unaffected.
//
// Usage contract (enforced by the thread-safety CI leg and by
// gqr-analyze's token rules, which fail the build on raw std::mutex /
// std::lock_guard outside this header):
//
//   Mutex mu;
//   int counter GQR_GUARDED_BY(mu);          // access requires mu
//   void Tick() GQR_EXCLUDES(mu) {           // caller must NOT hold mu
//     MutexLock lock(mu);                    // scoped acquire
//     ++counter;                             // OK: mu held
//   }
//   void TickLocked() GQR_REQUIRES(mu);      // lock-held helper
//
//   SharedMutex smu;
//   { ReaderLock lock(smu); ... }            // shared (many readers)
//   { WriterLock lock(smu); ... }            // exclusive (one writer)
//
// GQR_NO_THREAD_SAFETY_ANALYSIS appears only on the low-level wrapper
// bodies in this header (the one place Clang's documentation sanctions
// it: the analysis cannot see through the unannotated std internals).
// The serving stack itself — index/, util/thread_pool.* — carries zero
// escapes; that is an acceptance-tested property of the CI leg.
#ifndef GQR_UTIL_SYNC_H_
#define GQR_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// Under GQR_MODELCHECK builds every primitive operation below first offers
// itself to the deterministic schedule explorer (util/det_sched.h). For a
// managed thread of an active exploration the operation happens on the
// *virtualized* primitive inside the model — the std object is never
// touched — and the hook returns true. For every other thread (the entire
// ordinary test suite) the hook is one thread_local load returning false
// and the real operation proceeds. Ordinary builds compile none of this.
#if defined(GQR_MODELCHECK)
#include "util/det_sched.h"
#endif

// ---------------------------------------------------------------------------
// Annotation macros. Thread-safety attributes are a Clang extension;
// every other compiler gets the empty expansion (GCC would warn
// -Wattributes on the unknown attributes).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define GQR_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define GQR_THREAD_ANNOTATION_(x)
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define GQR_CAPABILITY(x) GQR_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define GQR_SCOPED_CAPABILITY GQR_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while `x` is held.
#define GQR_GUARDED_BY(x) GQR_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is guarded by `x`.
#define GQR_PT_GUARDED_BY(x) GQR_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention).
#define GQR_ACQUIRED_BEFORE(...) \
  GQR_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define GQR_ACQUIRED_AFTER(...) \
  GQR_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// The function may only be called with the capability held
/// (exclusively / at least shared). The function does not release it.
#define GQR_REQUIRES(...) \
  GQR_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define GQR_REQUIRES_SHARED(...) \
  GQR_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability (exclusive / shared) and holds
/// it on return.
#define GQR_ACQUIRE(...) \
  GQR_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define GQR_ACQUIRE_SHARED(...) \
  GQR_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (must be held on entry).
#define GQR_RELEASE(...) \
  GQR_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define GQR_RELEASE_SHARED(...) \
  GQR_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The function attempts the acquisition; first argument is the return
/// value that signals success.
#define GQR_TRY_ACQUIRE(...) \
  GQR_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define GQR_TRY_ACQUIRE_SHARED(...) \
  GQR_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (deadlock guard on public
/// entry points of classes that take their own lock).
#define GQR_EXCLUDES(...) GQR_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime/static assertion that the capability is held; teaches the
/// analysis a fact it cannot derive (e.g. across an unannotated seam).
#define GQR_ASSERT_CAPABILITY(x) GQR_THREAD_ANNOTATION_(assert_capability(x))
#define GQR_ASSERT_SHARED_CAPABILITY(x) \
  GQR_THREAD_ANNOTATION_(assert_shared_capability(x))

/// The function returns a reference to the given capability.
#define GQR_RETURN_CAPABILITY(x) GQR_THREAD_ANNOTATION_(lock_returned(x))

/// Opts a function body out of the analysis. Sanctioned ONLY inside this
/// header (primitive implementations); review and the thread-safety CI
/// leg keep it out of the serving stack.
#define GQR_NO_THREAD_SAFETY_ANALYSIS \
  GQR_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace gqr {

/// Annotated exclusive mutex. The bodies delegate to std::mutex, which
/// the analysis cannot see into — hence the sanctioned
/// GQR_NO_THREAD_SAFETY_ANALYSIS on each.
class GQR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() {
#if defined(GQR_MODELCHECK)
    det::OnSyncDestroy(this);
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GQR_ACQUIRE() GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    if (det::OnMutexLock(this)) return;
#endif
    mu_.lock();
  }
  void Unlock() GQR_RELEASE() GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    if (det::OnMutexUnlock(this)) return;
#endif
    mu_.unlock();
  }
  bool TryLock() GQR_TRY_ACQUIRE(true) GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    {
      bool acquired;
      if (det::OnMutexTryLock(this, &acquired)) return acquired;
    }
#endif
    return mu_.try_lock();
  }
  /// Static assertion point: tells the analysis this thread holds the
  /// mutex (used across seams the analysis cannot follow). No runtime
  /// check — std::mutex has no ownership query.
  void AssertHeld() const GQR_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Annotated reader/writer mutex. Writer preference policy (if any)
/// belongs to the call site — see ShardedIndex's gate — so this wrapper
/// stays a faithful shim over std::shared_mutex.
class GQR_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  ~SharedMutex() {
#if defined(GQR_MODELCHECK)
    det::OnSyncDestroy(this);
#endif
  }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() GQR_ACQUIRE() GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    if (det::OnSharedLock(this)) return;
#endif
    mu_.lock();
  }
  void Unlock() GQR_RELEASE() GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    if (det::OnSharedUnlock(this)) return;
#endif
    mu_.unlock();
  }
  void LockShared() GQR_ACQUIRE_SHARED() GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    if (det::OnSharedLockShared(this)) return;
#endif
    mu_.lock_shared();
  }
  void UnlockShared() GQR_RELEASE_SHARED() GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    if (det::OnSharedUnlockShared(this)) return;
#endif
    mu_.unlock_shared();
  }
  bool TryLock() GQR_TRY_ACQUIRE(true) GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    {
      bool acquired;
      if (det::OnSharedTryLock(this, &acquired)) return acquired;
    }
#endif
    return mu_.try_lock();
  }
  bool TryLockShared() GQR_TRY_ACQUIRE_SHARED(true)
      GQR_NO_THREAD_SAFETY_ANALYSIS {
#if defined(GQR_MODELCHECK)
    {
      bool acquired;
      if (det::OnSharedTryLockShared(this, &acquired)) return acquired;
    }
#endif
    return mu_.try_lock_shared();
  }
  /// Static assertion points (see Mutex::AssertHeld).
  void AssertHeld() const GQR_ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const GQR_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock on a Mutex.
class GQR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GQR_ACQUIRE(mu) : mu_(&mu) {
    mu.Lock();
  }
  ~MutexLock() GQR_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Scoped shared (read) lock on a SharedMutex.
class GQR_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) GQR_ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu.LockShared();
  }
  ~ReaderLock() GQR_RELEASE() { mu_->UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Scoped exclusive (write) lock on a SharedMutex.
class GQR_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) GQR_ACQUIRE(mu) : mu_(&mu) {
    mu.Lock();
  }
  ~WriterLock() GQR_RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable tied to the annotated Mutex. Wait() requires the
/// mutex (the analysis then knows guarded state may be re-checked after
/// wakeup while still holding it). Waits go through
/// condition_variable_any directly on the underlying std::mutex; the
/// internal unlock/relock of wait() is invisible to the analysis, which
/// is exactly the abseil CondVar model. Predicate waits are spelled as
/// explicit `while (!pred) cv.Wait(mu);` loops in this codebase so the
/// predicate's guarded reads stay inside the analyzed, lock-held scope
/// (a predicate lambda would need a per-lambda analysis escape).
class CondVar {
 public:
  CondVar() = default;
  ~CondVar() {
#if defined(GQR_MODELCHECK)
    det::OnSyncDestroy(this);
#endif
  }
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning. Spurious wakeups possible; always re-check the predicate.
  void Wait(Mutex& mu) GQR_REQUIRES(mu) {
#if defined(GQR_MODELCHECK)
    if (det::OnCvWait(this, &mu)) return;
#endif
    cv_.wait(mu.mu_);
  }

  /// As Wait, but gives up once the steady-clock `deadline` passes.
  /// Returns false on timeout, true on notification — including spurious
  /// wakeups, so callers re-check their predicate either way (the serving
  /// coalescer's linger loop is the canonical `while (...) WaitUntil`
  /// shape). `mu` is held again on return in both cases.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      GQR_REQUIRES(mu) {
#if defined(GQR_MODELCHECK)
    {
      bool timed_out;
      if (det::OnCvWaitUntil(this, &mu, deadline, &timed_out)) {
        return !timed_out;
      }
    }
#endif
    return cv_.wait_until(mu.mu_, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() {
#if defined(GQR_MODELCHECK)
    if (det::OnCvNotifyOne(this)) return;
#endif
    cv_.notify_one();
  }
  void NotifyAll() {
#if defined(GQR_MODELCHECK)
    if (det::OnCvNotifyAll(this)) return;
#endif
    cv_.notify_all();
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace gqr

#endif  // GQR_UTIL_SYNC_H_
