#ifndef RDFREL_UTIL_MUTEX_H_
#define RDFREL_UTIL_MUTEX_H_

/// \file mutex.h
/// The annotated synchronization layer (DESIGN.md §14). Every mutex in this
/// codebase is one of the wrappers below, which buys two always-on checks:
///
///  1. **Compile-time thread-safety analysis** (Clang only). The wrappers
///     carry Clang capability annotations, every guarded field is marked
///     `RDFREL_GUARDED_BY(mu_)`, and every lock-holding function is marked
///     `RDFREL_REQUIRES(...)` — so building with `-Wthread-safety
///     -Werror=thread-safety` (scripts/check_thread_safety.sh) rejects a
///     data race on an annotated field at compile time. On non-Clang
///     compilers every macro expands to nothing.
///
///  2. **Runtime lock-rank deadlock detection** (Debug builds, or
///     `RDFREL_LOCK_RANK=1`, or SetLockRankChecksEnabled(true)). Clang's
///     analysis is per-function and cannot see cross-mutex acquisition
///     *order*, so each wrapper registers a rank from the documented
///     hierarchy (lock_rank below); a per-thread held-lock stack aborts
///     with a cycle report the moment any thread acquires ranks out of
///     order — turning a once-in-a-blue-moon ABBA hang into a
///     deterministic unit-testable crash.
///
/// Locking style rules (enforced by the analysis; see DESIGN.md §14):
///  - hold locks through the RAII guards (MutexLock / ReaderLock /
///    WriterLock), never bare Lock()/Unlock() pairs;
///  - condition-variable predicates are written as explicit `while` loops
///    around CondVar::Wait — the analysis cannot see through a predicate
///    lambda, and the loop form needs no suppression;
///  - `RDFREL_NO_THREAD_SAFETY_ANALYSIS` is a last resort for code that is
///    correct for reasons the analysis cannot express (document why at the
///    use site).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// --------------------------------------------------------------------------
// Clang capability-annotation macro set. Each expands to the corresponding
// __attribute__ under Clang and to nothing elsewhere, so GCC builds are
// unaffected. Names follow the Clang documentation's modern spelling.

#if defined(__clang__) && defined(__has_attribute)
#define RDFREL_TS_ATTRIBUTE__(x) __attribute__((x))
#else
#define RDFREL_TS_ATTRIBUTE__(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex", "shared_mutex", ...).
#define RDFREL_CAPABILITY(x) RDFREL_TS_ATTRIBUTE__(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define RDFREL_SCOPED_CAPABILITY RDFREL_TS_ATTRIBUTE__(scoped_lockable)

/// Field may only be read with \p x held (shared or exclusive) and written
/// with \p x held exclusively.
#define RDFREL_GUARDED_BY(x) RDFREL_TS_ATTRIBUTE__(guarded_by(x))

/// Pointer field whose *pointee* is protected by \p x (the pointer itself
/// may be read freely).
#define RDFREL_PT_GUARDED_BY(x) RDFREL_TS_ATTRIBUTE__(pt_guarded_by(x))

/// Function requires the capabilities to be held exclusively on entry (and
/// does not release them).
#define RDFREL_REQUIRES(...) \
  RDFREL_TS_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// Function requires at least shared access on entry.
#define RDFREL_REQUIRES_SHARED(...) \
  RDFREL_TS_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and holds it past return.
#define RDFREL_ACQUIRE(...) \
  RDFREL_TS_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// Function acquires shared access and holds it past return.
#define RDFREL_ACQUIRE_SHARED(...) \
  RDFREL_TS_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (exclusive or, for scoped guards,
/// whatever mode the guard holds).
#define RDFREL_RELEASE(...) \
  RDFREL_TS_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// Function releases shared access.
#define RDFREL_RELEASE_SHARED(...) \
  RDFREL_TS_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// Function attempts the acquisition; first argument is the return value
/// meaning success.
#define RDFREL_TRY_ACQUIRE(...) \
  RDFREL_TS_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself).
#define RDFREL_EXCLUDES(...) RDFREL_TS_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code reached both
/// with and without the lock through paths the analysis cannot join).
#define RDFREL_ASSERT_CAPABILITY(x) \
  RDFREL_TS_ATTRIBUTE__(assert_capability(x))

/// Function returns a reference to the named capability.
#define RDFREL_RETURN_CAPABILITY(x) RDFREL_TS_ATTRIBUTE__(lock_returned(x))

/// Documents that this capability must be acquired before the listed ones.
#define RDFREL_ACQUIRED_BEFORE(...) \
  RDFREL_TS_ATTRIBUTE__(acquired_before(__VA_ARGS__))

/// Documents that this capability must be acquired after the listed ones.
#define RDFREL_ACQUIRED_AFTER(...) \
  RDFREL_TS_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// Turns the analysis off for one function. Last resort; document why.
#define RDFREL_NO_THREAD_SAFETY_ANALYSIS \
  RDFREL_TS_ATTRIBUTE__(no_thread_safety_analysis)

namespace rdfrel::util {

// --------------------------------------------------------------------------
// Lock ranks. The documented process-wide acquisition order: a thread may
// only acquire a mutex whose rank is STRICTLY GREATER than every ranked
// mutex it already holds. Gaps leave room for future layers.
//
// The order encodes every nesting the engine actually performs:
//   server conn queue -> store r/w lock -> plan cache shard -> WAL writer
//   (group-commit flusher state) -> Env file map.
// e.g. a writer holding the store lock logs to the WAL (kStore < kWal), and
// the WAL writer under kEveryRecord appends while holding its own lock
// (kWal < kEnv).
namespace lock_rank {
inline constexpr int kUnranked = 0;    ///< ordering not checked (leaf-only)
inline constexpr int kServer = 100;    ///< serve::SparqlServer connection queue
inline constexpr int kStore = 200;     ///< store reader/writer lock
inline constexpr int kPlanCache = 300; ///< sharded plan/translation cache
inline constexpr int kWal = 900;       ///< persist::WalWriter flusher state
inline constexpr int kEnv = 1000;      ///< persist Env file maps / fault spec
}  // namespace lock_rank

/// Rank checking defaults to ON in Debug builds (!NDEBUG) and OFF
/// otherwise; the environment variable RDFREL_LOCK_RANK=1/0 overrides the
/// default, and tests may force it at runtime regardless of build type.
void SetLockRankChecksEnabled(bool enabled);
bool LockRankChecksEnabled();

namespace detail {

/// -1 = not yet initialized (resolve from NDEBUG + RDFREL_LOCK_RANK).
extern std::atomic<int> g_lock_rank_mode;
bool InitLockRankMode();

inline bool LockRankOn() {
  const int m = g_lock_rank_mode.load(std::memory_order_relaxed);
  if (m < 0) return InitLockRankMode();
  return m == 1;
}

/// Slow paths live in mutex.cc; the inline wrappers keep the release-build
/// cost of every Lock/Unlock to one relaxed load and a predicted branch.
void NoteAcquireSlow(const void* mu, const char* name, int rank, bool shared);
void NoteReleaseSlow(const void* mu);

inline void NoteAcquire(const void* mu, const char* name, int rank,
                        bool shared) {
  if (LockRankOn()) NoteAcquireSlow(mu, name, rank, shared);
}
inline void NoteRelease(const void* mu) {
  if (LockRankOn()) NoteReleaseSlow(mu);
}

}  // namespace detail

// --------------------------------------------------------------------------
// Wrappers.

/// An annotated std::mutex with a registered lock rank. The rank check runs
/// BEFORE blocking on the underlying mutex, so a would-be ABBA deadlock
/// aborts with a cycle report instead of hanging.
class RDFREL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// \p name appears in cycle reports; \p rank is one of lock_rank above.
  explicit Mutex(const char* name, int rank = lock_rank::kUnranked)
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() RDFREL_ACQUIRE() {
    detail::NoteAcquire(this, name_, rank_, /*shared=*/false);
    mu_.lock();
  }
  void Unlock() RDFREL_RELEASE() {
    mu_.unlock();
    detail::NoteRelease(this);
  }
  bool TryLock() RDFREL_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // try_lock cannot deadlock, so no rank check — but record the hold so
    // ordering of later acquisitions is still validated against it.
    detail::NoteAcquire(this, name_, lock_rank::kUnranked, /*shared=*/false);
    return true;
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_ = "mutex";
  int rank_ = lock_rank::kUnranked;
};

/// An annotated std::shared_mutex. Re-entrant acquisition in ANY mode is
/// flagged by the rank detector: shared-then-shared on the same thread
/// deadlocks the moment a writer arrives between the two.
class RDFREL_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* name, int rank = lock_rank::kUnranked)
      : name_(name), rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() RDFREL_ACQUIRE() {
    detail::NoteAcquire(this, name_, rank_, /*shared=*/false);
    mu_.lock();
  }
  void Unlock() RDFREL_RELEASE() {
    mu_.unlock();
    detail::NoteRelease(this);
  }
  void LockShared() RDFREL_ACQUIRE_SHARED() {
    detail::NoteAcquire(this, name_, rank_, /*shared=*/true);
    mu_.lock_shared();
  }
  void UnlockShared() RDFREL_RELEASE_SHARED() {
    mu_.unlock_shared();
    detail::NoteRelease(this);
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const char* name_ = "shared_mutex";
  int rank_ = lock_rank::kUnranked;
};

/// Scoped exclusive lock over Mutex. Relockable: Unlock()/Lock() members
/// support the "release around blocking I/O" pattern (WAL group commit)
/// under full analysis coverage.
class RDFREL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) RDFREL_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RDFREL_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex (must currently be held).
  void Unlock() RDFREL_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }
  /// Re-acquires after Unlock().
  void Lock() RDFREL_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool held_ = true;
};

/// Scoped shared (reader) lock over SharedMutex.
class RDFREL_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) RDFREL_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() RDFREL_RELEASE() { mu_->UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Scoped exclusive (writer) lock over SharedMutex.
class RDFREL_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) RDFREL_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() RDFREL_RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable over Mutex. No predicate overloads on purpose: the
/// analysis cannot see into a predicate lambda, so call sites spell the
/// loop out — `while (!cond) cv.Wait(mu);` — which Clang verifies against
/// the guarded fields read by `cond`.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases \p mu, waits, re-acquires. Spurious wakeups happen;
  /// always wrap in a condition loop.
  void Wait(Mutex& mu) RDFREL_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();  // ownership stays with the caller's guard
  }

  /// Waits up to \p timeout; returns false on timeout, true when notified
  /// (or on a spurious wakeup — re-check the condition either way).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      RDFREL_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    const auto result = cv_.wait_for(adopted, timeout);
    adopted.release();
    return result == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rdfrel::util

#endif  // RDFREL_UTIL_MUTEX_H_
