/// Unit tests of the reference evaluator on a hand-checked graph, and of
/// Diff's multiset, slice and order rules.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference/reference.h"
#include "sparql/parser.h"

namespace rdfrel::reference {
namespace {

using rdf::Term;

Term Ex(const std::string& local) { return Term::Iri("http://ex/" + local); }

rdf::Graph People() {
  rdf::Graph g;
  g.Add({Ex("a"), Ex("knows"), Ex("b")});
  g.Add({Ex("a"), Ex("knows"), Ex("c")});
  g.Add({Ex("b"), Ex("knows"), Ex("c")});
  g.Add({Ex("b"), Ex("knows"), Ex("c")});  // duplicate: graphs are sets
  g.Add({Ex("a"), Ex("age"), Term::Literal("30")});
  g.Add({Ex("b"), Ex("age"), Term::Literal("25")});
  g.Add({Ex("a"), Ex("name"), Term::Literal("Alice")});
  g.Add({Ex("b"), Ex("name"), Term::Literal("Bob")});
  g.Add({Ex("c"), Ex("name"), Term::Literal("Carol")});
  return g;
}

class ReferenceTest : public ::testing::Test {
 protected:
  ReferenceTest() : graph_(People()), ref_(graph_) {}

  /// Evaluates \p body (after the prefix) and renders each row as
  /// space-separated N-Triples cells ("-" = unbound).
  std::vector<std::string> Rows(const std::string& body, bool slice = true) {
    auto q = sparql::ParseQuery("PREFIX : <http://ex/> " + body);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) return {};
    auto a = ref_.Evaluate(*q, slice);
    EXPECT_TRUE(a.ok()) << a.status().ToString();
    if (!a.ok()) return {};
    std::vector<std::string> out;
    for (const Row& row : a->rows) {
      std::string s;
      for (const auto& c : row) {
        if (!s.empty()) s += ' ';
        s += c.has_value() ? c->ToNTriples() : "-";
      }
      out.push_back(s);
    }
    return out;
  }

  rdf::Graph graph_;
  Evaluator ref_;
};

using Strings = std::vector<std::string>;

TEST_F(ReferenceTest, BasicGraphPatternJoinsOnSharedVariables) {
  EXPECT_EQ(Rows("SELECT ?x ?z WHERE { ?x :knows ?y . ?y :knows ?z }"),
            Strings{"<http://ex/a> <http://ex/c>"});
}

TEST_F(ReferenceTest, UnionConcatenatesBranches) {
  EXPECT_EQ(Rows("SELECT ?v WHERE { { :a :age ?v } UNION { :a :name ?v } "
                 "UNION { :c :age ?v } }"),
            (Strings{"\"30\"", "\"Alice\""}));
}

TEST_F(ReferenceTest, OptionalFilterIsTheLeftJoinCondition) {
  // The FILTER inside OPTIONAL only decides whether the optional part
  // binds; rows whose optional match it rejects stay, unextended.
  EXPECT_EQ(Rows("SELECT ?x ?n WHERE { ?x :knows ?y OPTIONAL { ?x :name ?n "
                 "FILTER (?n != \"Alice\") } }"),
            (Strings{"<http://ex/a> -", "<http://ex/a> -",
                     "<http://ex/b> \"Bob\""}));
}

TEST_F(ReferenceTest, FilterErrorsPropagateThroughNegation) {
  // ?g is unbound for :c: the comparison errs, !error errs, the row goes.
  EXPECT_EQ(Rows("SELECT ?x WHERE { ?x :name ?n OPTIONAL { ?x :age ?g } "
                 "FILTER (!(?g > 26)) }"),
            Strings{"<http://ex/b>"});
  EXPECT_EQ(Rows("SELECT ?x WHERE { ?x :name ?n OPTIONAL { ?x :age ?g } "
                 "FILTER (!BOUND(?g) || ?g > 26) }"),
            (Strings{"<http://ex/a>", "<http://ex/c>"}));
}

TEST_F(ReferenceTest, RegexIsSubstringOnLiterals) {
  EXPECT_EQ(Rows("SELECT ?x WHERE { ?x :name ?n FILTER (REGEX(?n, \"o\")) }"),
            (Strings{"<http://ex/b>", "<http://ex/c>"}));
  // IRIs are not strings: REGEX over one is an error, hence false.
  EXPECT_EQ(Rows("SELECT ?x WHERE { ?x :knows ?y FILTER (REGEX(?y, \"ex\")) }"),
            Strings{});
}

TEST_F(ReferenceTest, NumericComparisonsCompareValues) {
  EXPECT_EQ(Rows("SELECT ?x WHERE { ?x :age ?g FILTER (?g = 25.0) }"),
            Strings{"<http://ex/b>"});
  EXPECT_EQ(Rows("SELECT ?x WHERE { ?x :age ?g FILTER (?g >= 26) }"),
            Strings{"<http://ex/a>"});
}

TEST_F(ReferenceTest, DistinctOrderAndSlice) {
  EXPECT_EQ(Rows("SELECT DISTINCT ?x WHERE { ?x :knows ?y } ORDER BY "
                 "DESC(?x)"),
            (Strings{"<http://ex/b>", "<http://ex/a>"}));
  // Numeric literals sort by value, before other literals.
  EXPECT_EQ(Rows("SELECT ?v WHERE { { ?x :age ?v } UNION { ?x :name ?v } } "
                 "ORDER BY ?v LIMIT 3 OFFSET 1"),
            (Strings{"\"30\"", "\"Alice\"", "\"Bob\""}));
  EXPECT_EQ(Rows("SELECT ?v WHERE { ?x :age ?v } LIMIT 1 OFFSET 5"),
            Strings{});
  EXPECT_EQ(
      Rows("SELECT ?v WHERE { ?x :age ?v } LIMIT 1 OFFSET 5", false).size(),
      2u);
}

TEST_F(ReferenceTest, AggregatesWithGroupBy) {
  EXPECT_EQ(Rows("SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x :knows ?y } "
                 "GROUP BY ?x"),
            (Strings{
                "<http://ex/a> "
                "\"2\"^^<http://www.w3.org/2001/XMLSchema#integer>",
                "<http://ex/b> "
                "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>"}));
  EXPECT_EQ(
      Rows("SELECT (SUM(?g) AS ?s) (AVG(?g) AS ?m) (MIN(?n) AS ?lo) "
           "WHERE { ?x :age ?g . ?x :name ?n }"),
      Strings{"\"55\"^^<http://www.w3.org/2001/XMLSchema#decimal> "
              "\"27.5\"^^<http://www.w3.org/2001/XMLSchema#decimal> -"});
  EXPECT_EQ(Rows("SELECT (COUNT(*) AS ?n) WHERE { ?x :missing ?y }"),
            Strings{"\"0\"^^<http://www.w3.org/2001/XMLSchema#integer>"});
}

TEST_F(ReferenceTest, PropertyPathsAreUnsupported) {
  auto q = sparql::ParseQuery(
      "PREFIX : <http://ex/> SELECT ?y WHERE { :a :knows+ ?y }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(ref_.Evaluate(*q).status().IsUnsupported());
}

TEST_F(ReferenceTest, DiffChecksCountsMembershipAndOrder) {
  auto q = sparql::ParseQuery(
      "PREFIX : <http://ex/> SELECT ?x ?g WHERE { ?x :age ?g } ORDER BY ?g "
      "LIMIT 1");
  ASSERT_TRUE(q.ok());
  auto unsliced = ref_.Evaluate(*q, false);
  ASSERT_TRUE(unsliced.ok());
  const std::vector<std::string> vars = {"x", "g"};
  const Row b = {Ex("b"), Term::Literal("25")};
  const Row a = {Ex("a"), Term::Literal("30")};
  EXPECT_EQ(Diff(*q, *unsliced, vars, {b}), "");
  // In the unsliced answer, but not first in ORDER BY ?g.
  EXPECT_NE(Diff(*q, *unsliced, vars, {a}), "");
  EXPECT_NE(Diff(*q, *unsliced, vars, {b, a}), "");  // LIMIT 1
  EXPECT_NE(Diff(*q, *unsliced, vars, {{Ex("c"), Term::Literal("25")}}), "");
  EXPECT_NE(Diff(*q, *unsliced, {"g", "x"}, {b}), "");
}

}  // namespace
}  // namespace rdfrel::reference
