/// Per-predicate fan-out in the cost model, end to end: on the bench-scale
/// LUBM and PRBench graphs DB2RDF's greedy flow reaches LQ2's
/// `?x :undergraduateDegreeFrom ?y` by subject (one row per graduate
/// student) rather than through the university's degree holders, and
/// PQ16's `?wi :relatedChangeRequest ?cr` by object (~1.1 work items per
/// change request) rather than through the user's ~8 assignments. Both
/// answers agree with the engine-independent reference.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "benchdata/lubm.h"
#include "benchdata/prbench.h"
#include "reference/reference.h"
#include "sparql/parser.h"
#include "store/rdf_store.h"

namespace rdfrel::store {
namespace {

/// The "via <method> ... fed-by <triple>" part of triple \p t's line in an
/// Explain flow tree ("t4 via acs cost 1.000000 fed-by t1").
struct FlowStep {
  std::string method;
  std::string fed_by;
};

FlowStep StepOf(const std::string& flow_tree, int t) {
  std::istringstream lines(flow_tree);
  const std::string prefix = "t" + std::to_string(t) + " ";
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream words(line);
    std::string triple, via, cost_word, cost, fed_by_word;
    FlowStep step;
    words >> triple >> via >> step.method >> cost_word >> cost >>
        fed_by_word >> step.fed_by;
    return step;
  }
  return {};
}

/// Loads \p w, checks query \p id's greedy flow step for triple \p t and
/// its answer against the reference.
void ExpectFlowAndAnswer(const benchdata::Workload& w, const std::string& id,
                         int t, const FlowStep& want) {
  std::string sparql;
  for (const auto& nq : w.queries) {
    if (nq.id == id) sparql = nq.sparql;
  }
  ASSERT_FALSE(sparql.empty()) << id;
  auto store = RdfStore::Load(w.graph);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  auto ex = (*store)->Explain(sparql, QueryOptions{});
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  const FlowStep got = StepOf(ex->flow_tree, t);
  EXPECT_EQ(got.method, want.method) << id << "\n" << ex->flow_tree;
  EXPECT_EQ(got.fed_by, want.fed_by) << id << "\n" << ex->flow_tree;

  auto q = sparql::ParseQuery(sparql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto expected = reference::Evaluator(w.graph).Evaluate(*q);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto rows = (*store)->Query(sparql);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_FALSE(rows->rows.empty()) << id;
  EXPECT_EQ(reference::Diff(*q, *expected, rows->vars, rows->rows), "")
      << id;
}

// LQ2: t1 ?x type GraduateStudent, t2 ?x memberOf ?z, t3 ?z
// subOrganizationOf ?y, t4 ?x undergraduateDegreeFrom ?y, t5 ?y type
// University, t6 ?z type Department. undergraduateDegreeFrom has one
// object per subject but 100 subjects per university, so t4 is probed by
// ?x once t1 has bound it.
TEST(FanoutFlowTest, Lq2ProbesDegreeBySubject) {
  ExpectFlowAndAnswer(benchdata::MakeLubm(15, 4), "LQ2", 4, {"acs", "t1"});
}

// PQ16: t1 ?cr createdBy ?u, t2 ?wi assignedTo ?u, t3 ?wi
// relatedChangeRequest ?cr. A change request has ~1.1 related work items
// while a user has 8 assigned ones, so t3 is probed by the ?cr t1 binds.
TEST(FanoutFlowTest, Pq16ProbesRelatedWorkItemsByChangeRequest) {
  ExpectFlowAndAnswer(benchdata::MakePrbench(20, 4), "PQ16", 3,
                      {"aco", "t1"});
}

}  // namespace
}  // namespace rdfrel::store
