#include "util/mutex.h"

#include <gtest/gtest.h>

#include <thread>

namespace rdfrel::util {
namespace {

// The detector state is a process-wide toggle; save and restore it so these
// tests compose with the rest of the binary in any build type.
class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = LockRankChecksEnabled();
    SetLockRankChecksEnabled(true);
  }
  void TearDown() override { SetLockRankChecksEnabled(was_enabled_); }

  bool was_enabled_ = false;
};

using LockRankDeathTest = LockRankTest;

TEST_F(LockRankTest, HierarchyOrderIsClean) {
  Mutex store("store", lock_rank::kStore);
  Mutex wal("wal", lock_rank::kWal);
  Mutex env("env", lock_rank::kEnv);
  // kStore < kWal < kEnv: the documented nesting acquires in rank order.
  MutexLock a(&store);
  MutexLock b(&wal);
  MutexLock c(&env);
}

TEST_F(LockRankTest, ReleaseReopensTheRank) {
  Mutex store("store", lock_rank::kStore);
  Mutex wal("wal", lock_rank::kWal);
  {
    MutexLock a(&store);
    MutexLock b(&wal);
  }
  // Nothing held anymore: taking the low rank again is fine.
  MutexLock a(&store);
}

TEST_F(LockRankTest, UnrankedNeverChecks) {
  Mutex ranked("wal", lock_rank::kWal);
  Mutex plain;  // kUnranked
  MutexLock a(&ranked);
  MutexLock b(&plain);  // unranked under ranked: allowed
}

TEST_F(LockRankTest, TryLockRecordsButDoesNotCheck) {
  Mutex wal("wal", lock_rank::kWal);
  Mutex store("store", lock_rank::kStore);
  MutexLock a(&wal);
  // TryLock cannot block, so it cannot deadlock: no rank check even though
  // kStore < kWal.
  ASSERT_TRUE(store.TryLock());
  store.Unlock();
}

TEST_F(LockRankTest, DisabledChecksAreSilent) {
  SetLockRankChecksEnabled(false);
  Mutex wal("wal", lock_rank::kWal);
  Mutex store("store", lock_rank::kStore);
  MutexLock a(&wal);
  MutexLock b(&store);  // inverted, but the detector is off
}

TEST_F(LockRankTest, SharedThenDistinctExclusiveIsClean) {
  SharedMutex store("store", lock_rank::kStore);
  Mutex wal("wal", lock_rank::kWal);
  ReaderLock r(&store);
  MutexLock w(&wal);
}

TEST_F(LockRankDeathTest, InversionAborts) {
  Mutex wal("wal", lock_rank::kWal);
  Mutex store("store", lock_rank::kStore);
  EXPECT_DEATH(
      {
        MutexLock outer(&wal);
        MutexLock inner(&store);  // kStore < kWal while kWal held
      },
      "lock-rank inversion detected");
}

TEST_F(LockRankDeathTest, InversionReportsTheCycleEdge) {
  Mutex wal("wal", lock_rank::kWal);
  Mutex store("store", lock_rank::kStore);
  EXPECT_DEATH(
      {
        MutexLock outer(&wal);
        MutexLock inner(&store);
      },
      "inverts the documented order \"store\" -> \"wal\"");
}

TEST_F(LockRankDeathTest, EqualRankAborts) {
  // Equal ranks are an inversion too: the hierarchy is strict, so two
  // same-rank locks may never nest (either order could deadlock).
  Mutex a("env-a", lock_rank::kEnv);
  Mutex b("env-b", lock_rank::kEnv);
  EXPECT_DEATH(
      {
        MutexLock outer(&a);
        MutexLock inner(&b);
      },
      "lock-rank inversion detected");
}

TEST_F(LockRankDeathTest, ReentrantExclusiveAborts) {
  Mutex mu("store", lock_rank::kStore);
  EXPECT_DEATH(
      {
        mu.Lock();
        mu.Lock();  // self-deadlock
      },
      "re-entrant acquisition detected");
}

TEST_F(LockRankDeathTest, ReentrantSharedAborts) {
  // std::shared_mutex makes no recursion guarantee even in shared mode (a
  // waiting writer between the two acquisitions deadlocks), so the
  // detector flags it.
  SharedMutex mu("store", lock_rank::kStore);
  EXPECT_DEATH(
      {
        mu.LockShared();
        mu.LockShared();
      },
      "re-entrant shared acquisition detected");
}

TEST_F(LockRankDeathTest, ReportListsHeldLocks) {
  Mutex env("env", lock_rank::kEnv);
  Mutex store("store", lock_rank::kStore);
  EXPECT_DEATH(
      {
        MutexLock outer(&env);
        MutexLock inner(&store);
      },
      "while holding");
}

TEST_F(LockRankTest, HeldStacksArePerThread) {
  // A high rank held on this thread must not poison another thread's
  // acquisitions.
  Mutex wal("wal", lock_rank::kWal);
  Mutex store("store", lock_rank::kStore);
  MutexLock a(&wal);
  std::thread t([&] { MutexLock b(&store); });
  t.join();
}

TEST(MutexTest, CondVarWaitRoundTrip) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread t([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
  }
  t.join();
  EXPECT_TRUE(ready);
}

TEST(MutexTest, RelockableMutexLock) {
  Mutex mu;
  int guarded = 0;
  MutexLock lock(&mu);
  guarded = 1;
  lock.Unlock();
  lock.Lock();
  guarded = 2;
  EXPECT_EQ(guarded, 2);
}

}  // namespace
}  // namespace rdfrel::util
