#include "sql/btree.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace rdfrel::sql {
namespace {

RowId Rid(uint32_t n) { return RowId{n}; }

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.Lookup(Value::Int(1)).empty());
  EXPECT_FALSE(t.Contains(Value::Int(1)));
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BPlusTreeTest, InsertLookupSingle) {
  BPlusTree t;
  t.Insert(Value::Int(5), Rid(1));
  auto rids = t.Lookup(Value::Int(5));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], Rid(1));
  EXPECT_TRUE(t.Contains(Value::Int(5)));
  EXPECT_FALSE(t.Contains(Value::Int(6)));
}

TEST(BPlusTreeTest, DuplicateKeysAccumulate) {
  BPlusTree t;
  t.Insert(Value::Int(5), Rid(1));
  t.Insert(Value::Int(5), Rid(2));
  t.Insert(Value::Int(5), Rid(1));  // duplicate posting ignored
  EXPECT_EQ(t.Lookup(Value::Int(5)).size(), 2u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.num_keys(), 1u);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  BPlusTree t(/*fanout=*/4);
  for (uint32_t i = 0; i < 100; ++i) t.Insert(Value::Int(i), Rid(i));
  EXPECT_GT(t.height(), 1u);
  EXPECT_TRUE(t.CheckInvariants().ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(t.Lookup(Value::Int(i)).size(), 1u) << "key " << i;
  }
}

TEST(BPlusTreeTest, StringKeys) {
  BPlusTree t(4);
  for (int i = 0; i < 50; ++i) {
    t.Insert(Value::Str("key" + std::to_string(i)),
             Rid(static_cast<uint32_t>(i)));
  }
  EXPECT_TRUE(t.CheckInvariants().ok());
  EXPECT_EQ(t.Lookup(Value::Str("key42")).size(), 1u);
  EXPECT_TRUE(t.Lookup(Value::Str("nope")).empty());
}

TEST(BPlusTreeTest, RemovePostings) {
  BPlusTree t(4);
  t.Insert(Value::Int(1), Rid(10));
  t.Insert(Value::Int(1), Rid(11));
  EXPECT_TRUE(t.Remove(Value::Int(1), Rid(10)));
  EXPECT_EQ(t.Lookup(Value::Int(1)).size(), 1u);
  EXPECT_TRUE(t.Remove(Value::Int(1), Rid(11)));
  EXPECT_FALSE(t.Contains(Value::Int(1)));
  EXPECT_FALSE(t.Remove(Value::Int(1), Rid(11)));
  EXPECT_FALSE(t.Remove(Value::Int(99), Rid(0)));
  EXPECT_EQ(t.size(), 0u);
}

TEST(BPlusTreeTest, RangeScanInclusive) {
  BPlusTree t(4);
  for (uint32_t i = 0; i < 100; i += 2) t.Insert(Value::Int(i), Rid(i));
  std::vector<int64_t> seen;
  t.Range(Value::Int(10), Value::Int(20), [&](const Value& k, RowId) {
    seen.push_back(k.AsInt());
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{10, 12, 14, 16, 18, 20}));
}

TEST(BPlusTreeTest, RangeUnboundedAndEarlyStop) {
  BPlusTree t(4);
  for (uint32_t i = 0; i < 30; ++i) t.Insert(Value::Int(i), Rid(i));
  int count = 0;
  t.Range(std::nullopt, std::nullopt, [&](const Value&, RowId) {
    return ++count < 7;
  });
  EXPECT_EQ(count, 7);
}

TEST(BPlusTreeTest, ScanAllOrdered) {
  BPlusTree t(4);
  std::vector<int> keys = {42, 7, 19, 3, 88, 61, 5, 70, 1, 33};
  for (int k : keys) {
    t.Insert(Value::Int(k), Rid(static_cast<uint32_t>(k)));
  }
  std::vector<int64_t> seen;
  t.ScanAll([&](const Value& k, RowId) {
    seen.push_back(k.AsInt());
    return true;
  });
  std::vector<int64_t> expect(keys.begin(), keys.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(seen, expect);
}

// ------------------------ Parameterized property sweep ---------------------

struct BTreeParam {
  size_t fanout;
  int num_keys;
  uint64_t seed;
};

class BTreePropertyTest : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BTreePropertyTest, RandomInsertRemoveMatchesReferenceSet) {
  const auto& p = GetParam();
  BPlusTree t(p.fanout);
  Random rng(p.seed);
  std::set<std::pair<int64_t, uint32_t>> reference;

  // Random inserts (with duplicates).
  for (int i = 0; i < p.num_keys; ++i) {
    int64_t key = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(p.num_keys / 2 + 1)));
    uint32_t rid = static_cast<uint32_t>(rng.Uniform(1000));
    t.Insert(Value::Int(key), Rid(rid));
    reference.insert({key, rid});
  }
  ASSERT_TRUE(t.CheckInvariants().ok());
  EXPECT_EQ(t.size(), reference.size());

  // Every reference key lookup agrees.
  for (const auto& [key, rid] : reference) {
    auto rids = t.Lookup(Value::Int(key));
    EXPECT_TRUE(std::find(rids.begin(), rids.end(), Rid(rid)) != rids.end());
  }

  // Remove a random half.
  std::vector<std::pair<int64_t, uint32_t>> items(reference.begin(),
                                                  reference.end());
  for (size_t i = 0; i < items.size(); i += 2) {
    EXPECT_TRUE(t.Remove(Value::Int(items[i].first), Rid(items[i].second)));
    reference.erase(items[i]);
  }
  ASSERT_TRUE(t.CheckInvariants().ok());
  EXPECT_EQ(t.size(), reference.size());

  // Ordered scan equals the sorted reference multiset.
  std::vector<std::pair<int64_t, uint32_t>> scanned;
  t.ScanAll([&](const Value& k, RowId rid) {
    scanned.push_back({k.AsInt(), rid});
    return true;
  });
  EXPECT_EQ(scanned.size(), reference.size());
  for (size_t i = 1; i < scanned.size(); ++i) {
    EXPECT_LE(scanned[i - 1].first, scanned[i].first);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Values(BTreeParam{4, 200, 1}, BTreeParam{4, 2000, 2},
                      BTreeParam{8, 2000, 3}, BTreeParam{64, 2000, 4},
                      BTreeParam{64, 20000, 5}, BTreeParam{5, 999, 6}),
    [](const ::testing::TestParamInfo<BTreeParam>& param_info) {
      return "fanout" + std::to_string(param_info.param.fanout) + "_n" +
             std::to_string(param_info.param.num_keys) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace rdfrel::sql
