/// UNION folding (DESIGN.md §1 item 4): DB2RDF folds UNION branches that
/// are the same plan up to constants into one plan with hidden columns and
/// an IN-list test. Each query here must agree with the reference on every
/// backend under greedy and parse-order flow, and DB2RDF's greedy plan
/// must fold (or, where noted, must not).

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

namespace rdfrel::translate {
namespace {

using rdf::Term;

/// Eight change requests. cr1-cr5 are open, cr6-cr8 closed; cr1, cr2 and
/// cr6 have an owner; cr i tracks r(i % 3); every even cr carries two tags
/// (a multi-valued predicate on both sides), every odd cr one.
rdf::Graph ChangeRequests() {
  rdf::Graph g;
  auto iri = [](const std::string& local) {
    return Term::Iri("http://ex/" + local);
  };
  auto add = [&](const std::string& s, const std::string& p, Term o) {
    g.Add({iri(s), iri(p), std::move(o)});
  };
  for (int r = 0; r < 3; ++r) {
    add("r" + std::to_string(r), "priority",
        Term::Literal(std::to_string(r % 2)));
  }
  for (int i = 1; i <= 8; ++i) {
    const std::string cr = "cr" + std::to_string(i);
    add(cr, "state", iri(i <= 5 ? "open" : "closed"));
    add(cr, "tracks", iri("r" + std::to_string(i % 3)));
    add(cr, "tag", iri("t" + std::to_string(i % 3)));
    if (i % 2 == 0) add(cr, "tag", iri("t" + std::to_string((i + 1) % 3)));
    if (i == 1 || i == 2 || i == 6) add(cr, "owner", iri("u" + cr));
  }
  return g;
}

constexpr const char* kPrefix = "PREFIX : <http://ex/> ";

std::vector<std::pair<std::string, std::unique_ptr<store::SparqlStore>>>
LoadAll(const rdf::Graph& graph) {
  std::vector<std::pair<std::string, std::unique_ptr<store::SparqlStore>>>
      out;
  auto db2rdf = store::RdfStore::Load(graph);
  auto triple = store::TripleStoreBackend::Load(graph);
  auto predicate = store::PredicateStoreBackend::Load(graph);
  EXPECT_TRUE(db2rdf.ok() && triple.ok() && predicate.ok());
  if (db2rdf.ok()) out.emplace_back("db2rdf", std::move(*db2rdf));
  if (triple.ok()) out.emplace_back("triple", std::move(*triple));
  if (predicate.ok()) out.emplace_back("predicate", std::move(*predicate));
  return out;
}

/// Checks \p body (a WHERE group) against the reference on every backend
/// and flow mode; returns DB2RDF's greedy plan tree.
std::string ExpectAgreesWithReference(const std::string& select,
                                      const std::string& body) {
  const std::string sparql =
      std::string(kPrefix) + select + " WHERE { " + body + " }";
  const rdf::Graph graph = ChangeRequests();
  const reference::Evaluator reference(graph);
  auto q = sparql::ParseQuery(sparql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return "";
  auto expected = reference.Evaluate(*q, /*slice=*/false);
  EXPECT_TRUE(expected.ok()) << expected.status().ToString();
  if (!expected.ok()) return "";
  std::string plan;
  for (const auto& [name, backend] : LoadAll(graph)) {
    for (store::FlowMode mode :
         {store::FlowMode::kGreedy, store::FlowMode::kParseOrder}) {
      store::QueryOptions opts;
      opts.flow = mode;
      auto got = backend->QueryWith(sparql, opts);
      EXPECT_TRUE(got.ok()) << name << ": " << got.status().ToString();
      if (!got.ok()) continue;
      auto ex = backend->Explain(sparql, opts);
      EXPECT_TRUE(ex.ok()) << name << ": " << ex.status().ToString();
      EXPECT_EQ(reference::Diff(*q, *expected, got->vars, got->rows), "")
          << name << (mode == store::FlowMode::kGreedy ? " (greedy)\n"
                                                        : " (parse order)\n")
          << (ex.ok() ? ex->plan_tree + ex->sql : "");
      if (name == "db2rdf" && mode == store::FlowMode::kGreedy && ex.ok()) {
        plan = ex->plan_tree;
      }
    }
  }
  return plan;
}

bool Folds(const std::string& plan) {
  return plan.find("FOLD[") != std::string::npos;
}

TEST(UnionFoldTest, RepeatedBranchKeepsItsCopies) {
  // Branches 1 and 3 are equal: the fold takes open and closed, and the
  // repeated open branch stays a branch, so open requests come out twice.
  const std::string plan = ExpectAgreesWithReference(
      "SELECT ?cr", "{ ?cr :state :open } UNION { ?cr :state :closed } "
                    "UNION { ?cr :state :open }");
  EXPECT_NE(plan.find("FOLD[2 branches]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("OR"), std::string::npos) << plan;
}

TEST(UnionFoldTest, IdenticalBranchesStayUnfolded) {
  const std::string plan = ExpectAgreesWithReference(
      "SELECT ?cr ?s",
      "{ ?cr :state ?s . ?cr :tracks :r1 } UNION "
      "{ ?cr :state ?s . ?cr :tracks :r1 }");
  EXPECT_FALSE(Folds(plan)) << plan;
}

TEST(UnionFoldTest, MultiValuedPredicateAtAFoldedPosition) {
  // :tag is multi-valued from both sides, so whichever side the plan
  // reads, a folded tag constant is tested against list elements.
  const std::string plan = ExpectAgreesWithReference(
      "SELECT ?cr ?r", "{ ?cr :tag :t0 . ?cr :tracks ?r } UNION "
                       "{ ?cr :tag :t1 . ?cr :tracks ?r } UNION "
                       "{ ?cr :tag :t2 . ?cr :tracks ?r }");
  EXPECT_TRUE(Folds(plan)) << plan;
  // Three folded positions (each triple's subject and the tag value), one
  // of them a tag value in a list.
  const std::string plan2 = ExpectAgreesWithReference(
      "SELECT ?o", "{ :cr2 :tag :t0 . :cr2 :owner ?o } UNION "
                   "{ :cr6 :tag :t1 . :cr6 :owner ?o } UNION "
                   "{ :cr1 :tag :t0 . :cr1 :owner ?o }");
  EXPECT_TRUE(Folds(plan2)) << plan2;
}

TEST(UnionFoldTest, StarOnAConstantEntry) {
  // Each branch merges into one acs star on its constant subject; the
  // members share that entry, so the fold has a single position.
  const std::string plan = ExpectAgreesWithReference(
      "SELECT ?s ?r", "{ :cr1 :state ?s . :cr1 :tracks ?r } UNION "
                      "{ :cr2 :state ?s . :cr2 :tracks ?r } UNION "
                      "{ :cr6 :state ?s . :cr6 :tracks ?r }");
  EXPECT_TRUE(Folds(plan)) << plan;
  EXPECT_NE(plan.find("STAR[AND"), std::string::npos) << plan;
  // The same over the object side: each branch is an aco star on its
  // constant object.
  const std::string plan2 = ExpectAgreesWithReference(
      "SELECT ?cr", "{ ?cr :tag :t0 . ?x :tag :t0 } UNION "
                    "{ ?cr :tag :t1 . ?x :tag :t1 }");
  EXPECT_TRUE(Folds(plan2)) << plan2;
}

TEST(UnionFoldTest, ConstantsAbsentFromTheDictionary) {
  const std::string plan = ExpectAgreesWithReference(
      "SELECT ?cr", "{ ?cr :state :open } UNION { ?cr :state :nosuch } "
                    "UNION { ?cr :state :nosuch2 }");
  EXPECT_TRUE(Folds(plan)) << plan;
  const std::string plan2 = ExpectAgreesWithReference(
      "SELECT ?cr ?r", "{ ?cr :tracks ?r . ?r :priority \"1\" } UNION "
                       "{ ?cr :tracks ?r . ?r :priority \"7\" }");
  EXPECT_TRUE(Folds(plan2)) << plan2;
}

TEST(UnionFoldTest, FoldedUnionInsideAndNextToOptional) {
  const std::string plan = ExpectAgreesWithReference(
      "SELECT ?cr ?r ?o ?p",
      "?cr :tracks ?r . { ?cr :state :open } UNION { ?cr :state :closed } "
      "OPTIONAL { ?cr :owner ?o } OPTIONAL { ?r :priority ?p }");
  EXPECT_TRUE(Folds(plan)) << plan;
  EXPECT_NE(plan.find("OPTIONAL"), std::string::npos) << plan;
}

TEST(UnionFoldTest, SelectStarHidesFoldColumns) {
  const std::string body =
      "{ ?cr :state :open . ?cr :tracks ?r } UNION "
      "{ ?cr :state :closed . ?cr :tracks ?r }";
  const std::string plan = ExpectAgreesWithReference("SELECT *", body);
  EXPECT_TRUE(Folds(plan)) << plan;
  const std::string sparql =
      std::string(kPrefix) + "SELECT * WHERE { " + body + " }";
  for (const auto& [name, backend] : LoadAll(ChangeRequests())) {
    auto got = backend->Query(sparql);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    EXPECT_EQ(got->vars, (std::vector<std::string>{"cr", "r"})) << name;
  }
}

TEST(UnionFoldTest, BranchesWithDifferentAccessMethodsStayApart) {
  // The greedy flow looks the first branch up by its tag and the second
  // by its state, so the two plans differ beyond their constants.
  const std::string plan = ExpectAgreesWithReference(
      "SELECT *", "{ ?cr :state :open . ?cr :tag :t1 } UNION "
                  "{ ?cr :state :closed . ?cr :tag :t2 }");
  EXPECT_FALSE(Folds(plan)) << plan;
  EXPECT_NE(plan.find("(t2, aco)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("(t3, aco)"), std::string::npos) << plan;
}

TEST(UnionFoldTest, FilteredBranchStaysApart) {
  const std::string plan = ExpectAgreesWithReference(
      "SELECT ?cr", "{ ?cr :state :open FILTER (?cr != :cr1) } UNION "
                    "{ ?cr :state :closed } UNION { ?cr :state :open }");
  EXPECT_NE(plan.find("FOLD[2 branches]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("FILTER"), std::string::npos) << plan;
}

}  // namespace
}  // namespace rdfrel::translate
