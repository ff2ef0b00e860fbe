#include "sparql/parser.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace rdfrel::sparql {
namespace {

TEST(SparqlParserTest, SimpleBgp) {
  auto q = ParseQuery(
      "SELECT ?s WHERE { ?s <http://x/p> ?o . ?s <http://x/q> \"v\" }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select_vars, (std::vector<std::string>{"s"}));
  EXPECT_EQ(q->num_triples, 2);
  std::vector<const TriplePattern*> ts;
  q->where->CollectTriples(&ts);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_TRUE(ts[0]->subject.is_var);
  EXPECT_EQ(ts[0]->predicate.term, rdf::Term::Iri("http://x/p"));
  EXPECT_EQ(ts[1]->object.term, rdf::Term::Literal("v"));
  EXPECT_EQ(ts[0]->id, 1);
  EXPECT_EQ(ts[1]->id, 2);
}

TEST(SparqlParserTest, PrefixExpansion) {
  auto q = ParseQuery(
      "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
      "SELECT ?x WHERE { ?x foaf:name ?n }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<const TriplePattern*> ts;
  q->where->CollectTriples(&ts);
  EXPECT_EQ(ts[0]->predicate.term,
            rdf::Term::Iri("http://xmlns.com/foaf/0.1/name"));
}

TEST(SparqlParserTest, UndeclaredPrefixRejected) {
  auto st = ParseQuery("SELECT ?x WHERE { ?x foaf:name ?n }").status();
  EXPECT_TRUE(st.IsInvalidQuery()) << st.ToString();
  EXPECT_EQ(st.code(), StatusCode::kInvalidQuery);
}

TEST(SparqlParserTest, AKeywordIsRdfType) {
  auto q = ParseQuery("SELECT ?x WHERE { ?x a <http://x/Person> }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<const TriplePattern*> ts;
  q->where->CollectTriples(&ts);
  EXPECT_EQ(ts[0]->predicate.term.lexical(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
}

TEST(SparqlParserTest, PredicateAndObjectLists) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <http://x/p> ?a, ?b ; <http://x/q> ?c }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_triples, 3);
  std::vector<const TriplePattern*> ts;
  q->where->CollectTriples(&ts);
  // All share subject ?x.
  for (const auto* t : ts) {
    EXPECT_TRUE(t->subject.is_var);
    EXPECT_EQ(t->subject.var, "x");
  }
  EXPECT_EQ(ts[1]->object.var, "b");
  EXPECT_EQ(ts[2]->predicate.term, rdf::Term::Iri("http://x/q"));
}

TEST(SparqlParserTest, UnionPattern) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { { ?x <p:f> ?y } UNION { ?x <p:m> ?y } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where->kind, PatternKind::kOr);
  EXPECT_EQ(q->where->children.size(), 2u);
}

TEST(SparqlParserTest, OptionalPattern) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <p:a> ?y OPTIONAL { ?y <p:b> ?z } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where->kind, PatternKind::kAnd);
  ASSERT_EQ(q->where->children.size(), 2u);
  EXPECT_EQ(q->where->children[1]->kind, PatternKind::kOptional);
}

TEST(SparqlParserTest, PaperFigure6Query) {
  // The running example of the paper (Figure 6a), modulo prefixes.
  auto q = ParseQuery(R"(
    PREFIX : <http://example.org/>
    SELECT * WHERE {
      ?x :home "Palo Alto" .
      { ?x :founder ?y } UNION { ?x :member ?y }
      ?y :industry "Software" .
      ?z :developer ?y .
      ?y :revenue ?n .
      OPTIONAL { ?y :employees ?m }
    })");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_triples, 7);
  ASSERT_EQ(q->where->kind, PatternKind::kAnd);
  // Children: t1, OR, t4, t5, t6, OPTIONAL.
  ASSERT_EQ(q->where->children.size(), 6u);
  EXPECT_EQ(q->where->children[0]->kind, PatternKind::kTriple);
  EXPECT_EQ(q->where->children[1]->kind, PatternKind::kOr);
  EXPECT_EQ(q->where->children[5]->kind, PatternKind::kOptional);
}

TEST(SparqlParserTest, DistinctOrderLimitOffset) {
  auto q = ParseQuery(
      "SELECT DISTINCT ?x WHERE { ?x <p:a> ?y } "
      "ORDER BY DESC(?y) ?x LIMIT 10 OFFSET 20");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->distinct);
  ASSERT_EQ(q->order_by.size(), 2u);
  EXPECT_TRUE(q->order_by[0].descending);
  EXPECT_EQ(q->order_by[0].var, "y");
  EXPECT_FALSE(q->order_by[1].descending);
  EXPECT_EQ(q->limit, 10);
  EXPECT_EQ(q->offset, 20);
}

TEST(SparqlParserTest, HostileLimitOffsetIsAParseError) {
  // Out of int64 range, and negative: errors, never an exception.
  for (const char* tail :
       {"LIMIT 99999999999999999999", "OFFSET 99999999999999999999",
        "LIMIT 10 OFFSET 9223372036854775808", "LIMIT -1", "OFFSET -5"}) {
    auto q = ParseQuery(std::string("SELECT * WHERE { ?s ?p ?o } ") + tail);
    EXPECT_TRUE(q.status().IsParseError()) << tail << ": "
                                           << q.status().ToString();
  }
  auto max = ParseQuery(
      "SELECT * WHERE { ?s ?p ?o } LIMIT 9223372036854775807 OFFSET 0");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->limit, INT64_MAX);
  EXPECT_EQ(max->offset, 0);
}

TEST(SparqlParserTest, Filters) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { ?x <p:age> ?a . "
      "FILTER (?a > 18 && (?a < 65 || BOUND(?x))) "
      "FILTER (!REGEX(?x, \"bot\")) }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where->filters.size(), 2u);
  EXPECT_EQ(q->where->filters[0]->op, FilterOp::kAnd);
  EXPECT_EQ(q->where->filters[1]->op, FilterOp::kNot);
}

TEST(SparqlParserTest, TypedAndLangLiterals) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <p:a> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> . "
      "?x <p:b> \"hi\"@en . ?x <p:c> 42 . ?x <p:d> 3.5 }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<const TriplePattern*> ts;
  q->where->CollectTriples(&ts);
  EXPECT_EQ(ts[0]->object.term.datatype(),
            "http://www.w3.org/2001/XMLSchema#int");
  EXPECT_EQ(ts[1]->object.term.language(), "en");
  EXPECT_EQ(ts[2]->object.term.lexical(), "42");
  EXPECT_EQ(ts[3]->object.term.datatype(),
            "http://www.w3.org/2001/XMLSchema#decimal");
}

TEST(SparqlParserTest, BlankNodeSubject) {
  auto q = ParseQuery("SELECT * WHERE { _:b <p:a> ?x }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<const TriplePattern*> ts;
  q->where->CollectTriples(&ts);
  EXPECT_TRUE(ts[0]->subject.term.is_blank());
  EXPECT_EQ(ts[0]->subject.term.lexical(), "b");
}

TEST(SparqlParserTest, StarProjectionCollectsAllVars) {
  auto q = ParseQuery("SELECT * WHERE { ?a <p:x> ?b . ?b <p:y> ?c }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->EffectiveSelectVars(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SparqlParserTest, NestedOptionalAndUnion) {
  auto q = ParseQuery(R"(
    SELECT * WHERE {
      ?a <p:1> ?b .
      OPTIONAL { ?b <p:2> ?c OPTIONAL { ?c <p:3> ?d } }
      { ?a <p:4> ?e } UNION { ?a <p:5> ?e } UNION { ?a <p:6> ?e }
    })");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where->children.size(), 3u);
  const auto& opt = *q->where->children[1];
  EXPECT_EQ(opt.kind, PatternKind::kOptional);
  const auto& uni = *q->where->children[2];
  EXPECT_EQ(uni.kind, PatternKind::kOr);
  EXPECT_EQ(uni.children.size(), 3u);
}

TEST(SparqlParserTest, MalformedQueriesRejected) {
  EXPECT_FALSE(ParseQuery("SELECT ?x { ?x <p> }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x <p> ?y").ok());
  EXPECT_FALSE(ParseQuery("ASK { ?x <p> ?y }").ok());
  EXPECT_FALSE(ParseQuery("SELECT WHERE { ?x <p> ?y }").ok());
}

TEST(SparqlParserTest, CommentsIgnored) {
  auto q = ParseQuery(
      "# leading comment\nSELECT ?x # trailing\nWHERE { ?x <p:a> ?y }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_triples, 1);
}

TEST(SparqlParserTest, PatternToStringMentionsStructure) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?x <p:a> ?y OPTIONAL { ?y <p:b> ?z } }");
  ASSERT_TRUE(q.ok());
  std::string s = q->where->ToString();
  EXPECT_NE(s.find("AND"), std::string::npos);
  EXPECT_NE(s.find("OPTIONAL"), std::string::npos);
  EXPECT_NE(s.find("t1"), std::string::npos);
}

}  // namespace
}  // namespace rdfrel::sparql
