#include "util/mutex.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rdfrel::util {

namespace detail {

std::atomic<int> g_lock_rank_mode{-1};

bool InitLockRankMode() {
#ifdef NDEBUG
  int mode = 0;
#else
  int mode = 1;
#endif
  // One-time init read; nothing writes the environment concurrently.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("RDFREL_LOCK_RANK")) {
    if (env[0] == '1' && env[1] == '\0') mode = 1;
    if (env[0] == '0' && env[1] == '\0') mode = 0;
  }
  // A racing initializer computes the same value; last store wins benignly.
  g_lock_rank_mode.store(mode, std::memory_order_relaxed);
  return mode == 1;
}

namespace {

/// One held lock. POD on purpose: the per-thread stack below must stay
/// trivially destructible so locks taken during static destruction never
/// touch a dead object.
struct Held {
  const void* mu;
  const char* name;
  int rank;
  bool shared;
};

constexpr int kMaxHeld = 64;

struct HeldStack {
  int depth;
  Held entries[kMaxHeld];
};

thread_local HeldStack t_held;  // zero-initialized, trivially destructible

[[noreturn]] void AbortWithReport(const char* kind, const char* name,
                                  int rank, const Held* conflict) {
  std::fprintf(stderr, "rdfrel: %s\n", kind);
  std::fprintf(stderr, "  acquiring: \"%s\" (rank %d)\n", name, rank);
  std::fprintf(stderr, "  while holding (outermost first):\n");
  for (int i = 0; i < t_held.depth; ++i) {
    const Held& h = t_held.entries[i];
    std::fprintf(stderr, "    #%d \"%s\" (rank %d%s)\n", i, h.name, h.rank,
                 h.shared ? ", shared" : "");
  }
  if (conflict != nullptr) {
    std::fprintf(stderr,
                 "  cycle report: \"%s\" (rank %d) -> \"%s\" (rank %d) "
                 "inverts the documented order \"%s\" -> \"%s\"\n",
                 conflict->name, conflict->rank, name, rank, name,
                 conflict->name);
  }
  std::fprintf(stderr,
               "  see DESIGN.md \"Locking discipline\" for the lock "
               "hierarchy\n");
  std::abort();
}

}  // namespace

void NoteAcquireSlow(const void* mu, const char* name, int rank,
                     bool shared) {
  HeldStack& s = t_held;
  for (int i = 0; i < s.depth; ++i) {
    if (s.entries[i].mu == mu) {
      AbortWithReport(shared ? "re-entrant shared acquisition detected"
                             : "re-entrant acquisition detected",
                      name, rank, nullptr);
    }
  }
  if (rank != lock_rank::kUnranked) {
    // The new rank must exceed every ranked lock already held; report the
    // innermost violator (the edge that closes the would-be cycle).
    for (int i = s.depth - 1; i >= 0; --i) {
      const Held& h = s.entries[i];
      if (h.rank != lock_rank::kUnranked && h.rank >= rank) {
        AbortWithReport("lock-rank inversion detected", name, rank, &h);
      }
    }
  }
  if (s.depth < kMaxHeld) {
    s.entries[s.depth] = Held{mu, name, rank, shared};
    ++s.depth;
  }
  // Deeper than kMaxHeld: stop recording (never happens with the documented
  // hierarchy; the bound keeps the thread-local trivially destructible).
}

void NoteReleaseSlow(const void* mu) {
  HeldStack& s = t_held;
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.entries[i].mu != mu) continue;
    // Locks are almost always released innermost-first; tolerate
    // out-of-order release by compacting the stack.
    for (int j = i; j + 1 < s.depth; ++j) s.entries[j] = s.entries[j + 1];
    --s.depth;
    return;
  }
  // Unmatched release: the lock was taken while recording was off (mode
  // toggled mid-hold) or the stack overflowed. Ignore.
}

}  // namespace detail

void SetLockRankChecksEnabled(bool enabled) {
  detail::g_lock_rank_mode.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool LockRankChecksEnabled() { return detail::LockRankOn(); }

}  // namespace rdfrel::util
