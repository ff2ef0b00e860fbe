/// Explain and TranslateWith share one optimizer pipeline: for every query
/// of every benchmark workload, on all three backends and under the
/// plan-shaping ablations, Explain's SQL is byte-identical to the SQL
/// TranslateWith returns, and every stage string is filled.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/micro.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::store {
namespace {

benchdata::Workload MakeSmall(const std::string& name) {
  if (name == "micro") return benchdata::MakeMicro(200, 5);
  if (name == "lubm") return benchdata::MakeLubm(1, 5);
  if (name == "sp2bench") return benchdata::MakeSp2Bench(2, 5);
  if (name == "dbpedia") return benchdata::MakeDbpedia(200, 150, 5);
  if (name == "prbench") return benchdata::MakePrbench(1, 5);
  return {};
}

void ExpectExplainMatchesTranslate(SparqlStore& store,
                                   const benchdata::Workload& w,
                                   const std::string& backend) {
  QueryOptions unmerged;
  unmerged.merging = false;
  unmerged.late_fusing = false;
  QueryOptions parse_order;
  parse_order.flow = FlowMode::kParseOrder;
  for (const QueryOptions& opts : {QueryOptions{}, unmerged, parse_order}) {
    for (const auto& q : w.queries) {
      const std::string where = backend + "/" + w.name + "/" + q.id;
      auto sql = store.TranslateWith(q.sparql, opts);
      ASSERT_TRUE(sql.ok()) << where << ": " << sql.status().ToString();
      auto ex = store.Explain(q.sparql, opts);
      ASSERT_TRUE(ex.ok()) << where << ": " << ex.status().ToString();
      EXPECT_EQ(ex->sql, *sql) << where;
      EXPECT_FALSE(ex->parse_tree.empty()) << where;
      EXPECT_FALSE(ex->flow_tree.empty()) << where;
      EXPECT_FALSE(ex->exec_tree.empty()) << where;
      EXPECT_FALSE(ex->plan_tree.empty()) << where;
      EXPECT_FALSE(ex->exec_stats.empty()) << where;
    }
  }
}

class ExplainTestWorkloads : public ::testing::TestWithParam<const char*> {};

TEST_P(ExplainTestWorkloads, Db2RdfExplainSqlEqualsTranslate) {
  benchdata::Workload w = MakeSmall(GetParam());
  ASSERT_FALSE(w.queries.empty());
  auto store = RdfStore::Load(std::move(w.graph));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectExplainMatchesTranslate(**store, w, "db2rdf");
}

TEST_P(ExplainTestWorkloads, TripleStoreExplainSqlEqualsTranslate) {
  benchdata::Workload w = MakeSmall(GetParam());
  ASSERT_FALSE(w.queries.empty());
  auto store = TripleStoreBackend::Load(std::move(w.graph));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectExplainMatchesTranslate(**store, w, "triple");
}

TEST_P(ExplainTestWorkloads, PredicateStoreExplainSqlEqualsTranslate) {
  benchdata::Workload w = MakeSmall(GetParam());
  ASSERT_FALSE(w.queries.empty());
  auto store = PredicateStoreBackend::Load(std::move(w.graph));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectExplainMatchesTranslate(**store, w, "predicate");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ExplainTestWorkloads,
                         ::testing::Values("micro", "lubm", "sp2bench",
                                           "dbpedia", "prbench"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace rdfrel::store
