/// Every workload query (micro, LUBM, SP2Bench, DBpedia, PRBench) on all
/// three backends — DB2RDF, triple store, predicate store — against the
/// engine-independent reference evaluator. Queries the reference does not
/// support (property paths) are skipped and counted; the count is printed
/// and recorded as the `skipped` test property.

#include <iostream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/micro.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "reference/reference.h"
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
  benchdata::Workload w = MakeSmall(GetParam());
  const Evaluator reference(w.graph);
  std::vector<std::pair<std::string, std::unique_ptr<store::SparqlStore>>>
      backends;
  {
    auto s = store::RdfStore::Load(std::move(w.graph));
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    backends.emplace_back("db2rdf", std::move(*s));
  }
  {
    auto s = store::TripleStoreBackend::Load(MakeSmall(GetParam()).graph);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    backends.emplace_back("triple", std::move(*s));
  }
  {
    auto s = store::PredicateStoreBackend::Load(MakeSmall(GetParam()).graph);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    backends.emplace_back("predicate", std::move(*s));
  }

  int checked = 0;
  int skipped = 0;
  for (const auto& nq : w.queries) {
    auto q = sparql::ParseQuery(nq.sparql);
    ASSERT_TRUE(q.ok()) << nq.id << ": " << q.status().ToString();
    auto expected = reference.Evaluate(*q, /*slice=*/false);
    if (!expected.ok() && expected.status().IsUnsupported()) {
      ++skipped;
      continue;
    }
    ASSERT_TRUE(expected.ok()) << nq.id << ": "
                               << expected.status().ToString();
    for (const auto& [name, backend] : backends) {
      auto got = backend->Query(nq.sparql);
      ASSERT_TRUE(got.ok()) << name << "/" << nq.id << ": "
                            << got.status().ToString();
      EXPECT_EQ(Diff(*q, *expected, got->vars, got->rows), "")
          << name << " disagrees with the reference on " << w.name << "/"
          << nq.id << "\n"
          << nq.sparql;
    }
    ++checked;
  }
  std::cout << w.name << ": " << checked << " queries checked on "
            << backends.size() << " backends, " << skipped
            << " skipped (outside the reference subset)\n";
  RecordProperty("skipped", skipped);
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadReferenceTest,
                         ::testing::Values("micro", "lubm", "sp2bench",
                                           "dbpedia", "prbench"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

}  // namespace
}  // namespace rdfrel::reference
