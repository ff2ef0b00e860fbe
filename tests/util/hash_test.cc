#include "util/hash.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rdfrel {
namespace {

TEST(HashTest, Fnv1aIsStable) {
  // Known FNV-1a vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(HashTest, Mix64Bijective) {
  // Distinct inputs must stay distinct (sanity over a small set).
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(Mix64(i)).second);
  }
}

TEST(SeededHashTest, DifferentSeedsDecorrelate) {
  SeededHash h1(1), h2(2);
  int agree = 0;
  const int kTrials = 1000;
  for (int i = 0; i < kTrials; ++i) {
    std::string key = "predicate_" + std::to_string(i);
    if (h1.Bucket(key, 16) == h2.Bucket(key, 16)) ++agree;
  }
  // Independent functions agree ~1/16 of the time; allow generous slack.
  EXPECT_LT(agree, kTrials / 4);
  EXPECT_GT(agree, 0);
}

TEST(SeededHashTest, BucketInRange) {
  SeededHash h(7);
  for (int i = 0; i < 1000; ++i) {
    uint32_t b = h.Bucket(std::string("k").append(std::to_string(i)), 13);
    EXPECT_LT(b, 13u);
  }
}

TEST(SeededHashTest, DeterministicAcrossInstances) {
  SeededHash a(99), b(99);
  EXPECT_EQ(a.Hash("hello"), b.Hash("hello"));
  EXPECT_EQ(a.Bucket("hello", 64), b.Bucket("hello", 64));
}

TEST(SeededHashTest, BucketsRoughlyUniform) {
  SeededHash h(5);
  const uint32_t kRange = 8;
  std::vector<int> counts(kRange, 0);
  const int kTrials = 8000;
  for (int i = 0; i < kTrials; ++i) {
    counts[h.Bucket("uri:" + std::to_string(i), kRange)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, kTrials / kRange / 2);
    EXPECT_LT(c, kTrials / kRange * 2);
  }
}

TEST(HashTest, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

}  // namespace
}  // namespace rdfrel
