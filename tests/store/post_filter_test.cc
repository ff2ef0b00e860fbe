/// Solution modifiers over post-filters, on every backend. A post-filter
/// is a FILTER the SQL translation cannot express (REGEX): it runs on the
/// decoded rows after the SQL, so LIMIT/OFFSET must run after it too, and
/// an aggregate computed in the SQL would count rows the filter drops.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::store {
namespace {

using rdf::Term;

constexpr const char* kPrefix = "PREFIX : <http://ex/> ";
constexpr const char* kWhere =
    "WHERE { ?s :label ?l FILTER(REGEX(?l, \"Entity 12\")) } ";
/// "Entity 12" and "Entity 120".."Entity 129".
constexpr size_t kMatches = 11;

/// 300 entities labelled "Entity 0".."Entity 299".
rdf::Graph LabelGraph() {
  rdf::Graph g;
  for (int i = 0; i < 300; ++i) {
    g.Add({Term::Iri("http://ex/e" + std::to_string(i)),
           Term::Iri("http://ex/label"),
           Term::Literal("Entity " + std::to_string(i))});
  }
  return g;
}

std::unique_ptr<SparqlStore> LoadBackend(const std::string& name) {
  if (name == "db2rdf") {
    auto s = RdfStore::Load(LabelGraph());
    return s.ok() ? std::move(*s) : nullptr;
  }
  if (name == "triple") {
    auto s = TripleStoreBackend::Load(LabelGraph());
    return s.ok() ? std::move(*s) : nullptr;
  }
  auto s = PredicateStoreBackend::Load(LabelGraph());
  return s.ok() ? std::move(*s) : nullptr;
}

class PostFilterTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    store_ = LoadBackend(GetParam());
    ASSERT_NE(store_, nullptr);
  }

  /// Runs `kPrefix + select + kWhere + tail`.
  ResultSet Run(const std::string& select, const std::string& tail = "") {
    auto rs = store_->Query(kPrefix + select + " " + kWhere + tail);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.ok() ? std::move(*rs) : ResultSet{};
  }

  std::unique_ptr<SparqlStore> store_;
};

TEST_P(PostFilterTest, FilterOnUnprojectedVariable) {
  EXPECT_EQ(Run("SELECT ?s").size(), kMatches);
}

TEST_P(PostFilterTest, LimitAppliesAfterFilter) {
  EXPECT_EQ(Run("SELECT ?s", "LIMIT 50").size(), kMatches);
}

TEST_P(PostFilterTest, LimitOffsetSliceFilteredRows) {
  const ResultSet all = Run("SELECT ?s");
  const ResultSet page = Run("SELECT ?s", "LIMIT 5 OFFSET 3");
  ASSERT_EQ(page.size(), 5u);
  ASSERT_EQ(all.size(), kMatches);
  for (size_t i = 0; i < page.size(); ++i) {
    EXPECT_EQ(page.rows[i], all.rows[i + 3]) << "row " << i;
  }
}

TEST_P(PostFilterTest, LimitWithProjectedFilterVariable) {
  const ResultSet rs = Run("SELECT ?s ?l", "LIMIT 5");
  ASSERT_EQ(rs.size(), 5u);
  for (const auto& row : rs.rows) {
    ASSERT_TRUE(row[1].has_value());
    EXPECT_EQ(row[1]->lexical().rfind("Entity 12", 0), 0u)
        << row[1]->lexical();
  }
}

TEST_P(PostFilterTest, OrderByLimitKeepsOrderedPrefix) {
  const ResultSet all = Run("SELECT ?s", "ORDER BY ?l");
  const ResultSet top = Run("SELECT ?s", "ORDER BY ?l LIMIT 3");
  ASSERT_EQ(top.size(), 3u);
  ASSERT_EQ(all.size(), kMatches);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top.rows[i], all.rows[i]) << "row " << i;
  }
}

TEST_P(PostFilterTest, DistinctLimitAppliesAfterFilter) {
  EXPECT_EQ(Run("SELECT DISTINCT ?s", "LIMIT 5").size(), 5u);
}

TEST_P(PostFilterTest, AggregateOverPostFilterIsUnsupported) {
  auto rs = store_->Query(std::string(kPrefix) +
                          "SELECT (COUNT(?s) AS ?c) " + kWhere);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kUnsupported)
      << rs.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Backends, PostFilterTest,
                         ::testing::Values("db2rdf", "triple", "predicate"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace rdfrel::store
