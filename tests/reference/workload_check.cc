#include "reference/workload_check.h"

#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reference/reference.h"
#include "sparql/parser.h"
#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::reference {

void ExpectWorkloadMatchesReference(const benchdata::Workload& w,
                                    bool allow_unsupported) {
  const Evaluator reference(w.graph);
  std::vector<std::pair<std::string, std::unique_ptr<store::SparqlStore>>>
      backends;
  {
    auto s = store::RdfStore::Load(w.graph);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    backends.emplace_back("db2rdf", std::move(*s));
  }
  {
    auto s = store::TripleStoreBackend::Load(w.graph);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    backends.emplace_back("triple", std::move(*s));
  }
  {
    auto s = store::PredicateStoreBackend::Load(w.graph);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    backends.emplace_back("predicate", std::move(*s));
  }

  int checked = 0;
  int skipped = 0;
  int declined = 0;
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
      if (allow_unsupported && got.status().IsUnsupported()) {
        ++declined;
        continue;
      }
      EXPECT_TRUE(got.ok()) << name << "/" << nq.id << ": "
                            << got.status().ToString();
      if (!got.ok()) continue;
      EXPECT_EQ(Diff(*q, *expected, got->vars, got->rows), "")
          << name << " disagrees with the reference on " << w.name << "/"
          << nq.id << "\n"
          << nq.sparql;
    }
    ++checked;
  }
  std::cout << w.name << ": " << checked << " queries checked on "
            << backends.size() << " backends, " << skipped
            << " skipped (outside the reference subset), " << declined
            << " declined by a backend\n";
  ::testing::Test::RecordProperty("skipped", skipped);
  EXPECT_GT(checked, 0);
}

}  // namespace rdfrel::reference
