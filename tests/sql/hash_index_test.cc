#include "sql/hash_index.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace rdfrel::sql {
namespace {

RowId Rid(uint32_t n) { return RowId{n}; }

TEST(HashIndexTest, EmptyIndex) {
  HashIndex idx;
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.num_keys(), 0u);
  EXPECT_TRUE(idx.Lookup(Value::Int(1)).empty());
  EXPECT_FALSE(idx.Contains(Value::Int(1)));
}

TEST(HashIndexTest, InsertLookupSingle) {
  HashIndex idx;
  idx.Insert(Value::Int(5), Rid(1));
  const std::vector<RowId>& rids = idx.Lookup(Value::Int(5));
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], Rid(1));
  EXPECT_TRUE(idx.Contains(Value::Int(5)));
  EXPECT_FALSE(idx.Contains(Value::Int(6)));
}

TEST(HashIndexTest, DuplicateKeysAccumulate) {
  HashIndex idx;
  idx.Insert(Value::Int(5), Rid(1));
  idx.Insert(Value::Int(5), Rid(2));
  idx.Insert(Value::Int(5), Rid(1));  // repeated (key, rid) kept once
  EXPECT_EQ(idx.Lookup(Value::Int(5)), (std::vector<RowId>{Rid(1), Rid(2)}));
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.num_keys(), 1u);
}

TEST(HashIndexTest, RemovePostings) {
  HashIndex idx;
  idx.Insert(Value::Int(1), Rid(10));
  idx.Insert(Value::Int(1), Rid(11));
  EXPECT_TRUE(idx.Remove(Value::Int(1), Rid(10)));
  EXPECT_EQ(idx.Lookup(Value::Int(1)), std::vector<RowId>{Rid(11)});
  EXPECT_TRUE(idx.Remove(Value::Int(1), Rid(11)));
  EXPECT_FALSE(idx.Contains(Value::Int(1)));
  EXPECT_EQ(idx.num_keys(), 0u);
  // Absent postings: a removed rid, an absent key, a present key with
  // another rid.
  EXPECT_FALSE(idx.Remove(Value::Int(1), Rid(11)));
  EXPECT_FALSE(idx.Remove(Value::Int(99), Rid(0)));
  idx.Insert(Value::Int(2), Rid(20));
  EXPECT_FALSE(idx.Remove(Value::Int(2), Rid(21)));
  EXPECT_EQ(idx.size(), 1u);
}

TEST(HashIndexTest, IntegralDoublesFindIntKeys) {
  HashIndex idx;
  idx.Insert(Value::Int(5), Rid(1));
  idx.Insert(Value::Real(5.0), Rid(2));
  idx.Insert(Value::Real(5.5), Rid(3));
  EXPECT_EQ(idx.num_keys(), 2u);
  EXPECT_EQ(idx.Lookup(Value::Real(5.0)), (std::vector<RowId>{Rid(1), Rid(2)}));
  EXPECT_EQ(idx.Lookup(Value::Int(5)), (std::vector<RowId>{Rid(1), Rid(2)}));
  EXPECT_EQ(idx.Lookup(Value::Real(5.5)), std::vector<RowId>{Rid(3)});
  EXPECT_TRUE(idx.Remove(Value::Real(5.0), Rid(1)));
  EXPECT_EQ(idx.Lookup(Value::Int(5)), std::vector<RowId>{Rid(2)});
}

// ------------------------ Parameterized property sweep ---------------------

struct HashIndexParam {
  uint64_t num_ops;  // 64-bit, so the struct has no padding for gtest to
                     // print into the test's name
  uint64_t seed;
};

class HashIndexPropertyTest
    : public ::testing::TestWithParam<HashIndexParam> {};

/// Seeded inserts and removes (repeated postings and absent ones included)
/// against a reference multimap, whose equal keys keep insertion order as
/// the index's postings do. Keys are drawn as INT and probed as INT or as
/// the equal DOUBLE.
TEST_P(HashIndexPropertyTest, RandomInsertRemoveMatchesReferenceMultimap) {
  const auto& p = GetParam();
  const uint64_t key_space = p.num_ops / 4 + 1;
  HashIndex idx;
  Random rng(p.seed);
  std::multimap<int64_t, uint32_t> reference;
  auto find = [&](int64_t key, uint32_t rid) {
    auto [lo, hi] = reference.equal_range(key);
    auto it = std::find_if(lo, hi, [&](const auto& e) {
      return e.second == rid;
    });
    return it == hi ? reference.end() : it;
  };
  auto key_value = [&](int64_t key) {
    return rng.Uniform(2) == 0 ? Value::Int(key)
                               : Value::Real(static_cast<double>(key));
  };

  for (uint64_t i = 0; i < p.num_ops; ++i) {
    const auto key = static_cast<int64_t>(rng.Uniform(key_space));
    const auto rid = static_cast<uint32_t>(rng.Uniform(64));
    if (rng.Uniform(10) < 7) {
      idx.Insert(key_value(key), Rid(rid));
      if (find(key, rid) == reference.end()) reference.emplace(key, rid);
    } else {
      auto it = find(key, rid);
      EXPECT_EQ(idx.Remove(key_value(key), Rid(rid)), it != reference.end())
          << "remove (" << key << ", " << rid << ") at op " << i;
      if (it != reference.end()) reference.erase(it);
    }
  }

  EXPECT_EQ(idx.size(), reference.size());
  size_t keys = 0;
  for (int64_t key = 0; key < static_cast<int64_t>(key_space); ++key) {
    std::vector<RowId> want;
    auto [lo, hi] = reference.equal_range(key);
    for (auto it = lo; it != hi; ++it) want.push_back(Rid(it->second));
    if (!want.empty()) ++keys;
    EXPECT_EQ(idx.Lookup(key_value(key)), want) << "key " << key;
    EXPECT_EQ(idx.Contains(Value::Int(key)), !want.empty()) << "key " << key;
  }
  EXPECT_EQ(idx.num_keys(), keys);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashIndexPropertyTest,
    ::testing::Values(HashIndexParam{200, 1}, HashIndexParam{2000, 2},
                      HashIndexParam{2000, 3}, HashIndexParam{2000, 4},
                      HashIndexParam{20000, 5}, HashIndexParam{999, 6}),
    [](const ::testing::TestParamInfo<HashIndexParam>& param_info) {
      return "n" + std::to_string(param_info.param.num_ops) + "_s" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace rdfrel::sql
