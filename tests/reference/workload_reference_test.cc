/// Every workload query (micro, LUBM, SP2Bench, DBpedia, PRBench) on all
/// three backends — DB2RDF, triple store, predicate store — against the
/// engine-independent reference evaluator, at toy scale and one generator
/// seed. tests/reference/seed_sweep_test.cc runs the same check at the
/// bench_summary scales over several seeds.

#include <string>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/micro.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "reference/reference.h"
#include "reference/workload_check.h"
#include "sparql/parser.h"
#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::reference {
namespace {

benchdata::Workload MakeSmall(const std::string& name) {
  if (name == "micro") return benchdata::MakeMicro(400, 7);
  if (name == "lubm") return benchdata::MakeLubm(2, 7);
  if (name == "sp2bench") return benchdata::MakeSp2Bench(4, 7);
  if (name == "dbpedia") return benchdata::MakeDbpedia(400, 300, 7);
  return benchdata::MakePrbench(2, 7);
}

class WorkloadReferenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadReferenceTest, EveryQueryMatchesReferenceOnAllBackends) {
  ExpectWorkloadMatchesReference(MakeSmall(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadReferenceTest,
                         ::testing::Values("micro", "lubm", "sp2bench",
                                           "dbpedia", "prbench"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// Both baselines once deduplicated triples on a 64-bit hash of their ids.
// In this graph two distinct triples share that hash, and the baselines
// dropped `<Entity10161> :label <Entity2849>`: DQ4 returned one row short.
TEST(TripleDedupRegressionTest, DbpediaSeed102Dq4AgreesOnAllBackends) {
  benchdata::Workload w = benchdata::MakeDbpedia(12000, 1500, 102);
  std::string dq4;
  for (const auto& nq : w.queries) {
    if (nq.id == "DQ4") dq4 = nq.sparql;
  }
  ASSERT_FALSE(dq4.empty());
  auto q = sparql::ParseQuery(dq4);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto expected = Evaluator(w.graph).Evaluate(*q);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto check = [&](const char* name, auto loaded) {
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    auto got = (*loaded)->Query(dq4);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_EQ(got->rows.size(), expected->rows.size()) << name;
    EXPECT_EQ(Diff(*q, *expected, got->vars, got->rows), "") << name;
  };
  check("db2rdf", store::RdfStore::Load(w.graph));
  check("triple", store::TripleStoreBackend::Load(w.graph));
  check("predicate", store::PredicateStoreBackend::Load(w.graph));
}

}  // namespace
}  // namespace rdfrel::reference
