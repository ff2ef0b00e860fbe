/// store::CompareForOrderBy, the one ORDER BY comparator: the stores sort
/// decoded terms with it after the SQL runs (the SQL engine has no ORDER
/// BY).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "store/result_set.h"

namespace rdfrel::store {
namespace {

using rdf::Term;
using OptTerm = std::optional<Term>;

std::string Show(const OptTerm& t) {
  return t.has_value() ? t->ToNTriples() : "(unbound)";
}

/// Asserts that \p ascending is strictly increasing under CompareForOrderBy,
/// pair by pair and in both directions.
void ExpectStrictlyAscending(const std::vector<OptTerm>& ascending) {
  for (size_t i = 0; i < ascending.size(); ++i) {
    EXPECT_EQ(CompareForOrderBy(ascending[i], ascending[i]), 0)
        << Show(ascending[i]);
    for (size_t j = i + 1; j < ascending.size(); ++j) {
      EXPECT_EQ(CompareForOrderBy(ascending[i], ascending[j]), -1)
          << Show(ascending[i]) << " vs " << Show(ascending[j]);
      EXPECT_EQ(CompareForOrderBy(ascending[j], ascending[i]), 1)
          << Show(ascending[j]) << " vs " << Show(ascending[i]);
    }
  }
}

TEST(CompareForOrderByTest, UnboundBlankIriLiteral) {
  // Each lexical form would sort the other way round, so only the kind
  // decides.
  ExpectStrictlyAscending({std::nullopt, Term::BlankNode("zzz"),
                           Term::Iri("http://a"), Term::Literal("!")});
}

TEST(CompareForOrderByTest, NumericLiteralsCompareByValueFirst) {
  ExpectStrictlyAscending(
      {Term::Literal("-1.5"), Term::Literal("2.5"),
       Term::TypedLiteral("3", "http://www.w3.org/2001/XMLSchema#integer"),
       Term::Literal("9"), Term::Literal("10"), Term::Literal("999"),
       // Non-numeric literals follow every number, "1a" included.
       Term::Literal("1a"), Term::Literal("abc")});
  // Numbers still rank after IRIs and blank nodes.
  ExpectStrictlyAscending({Term::BlankNode("b"), Term::Iri("http://z"),
                           Term::Literal("-100")});
  // Equal values tie whatever their spelling; the stable sort at decode
  // keeps such rows in input order.
  EXPECT_EQ(CompareForOrderBy(Term::Literal("1"), Term::Literal("1.0")), 0);
}

TEST(CompareForOrderByTest, TieBreaksByLexicalLanguageThenDatatype) {
  ExpectStrictlyAscending({
      Term::Literal("abc"),
      Term::TypedLiteral("abc", "http://ex/t1"),
      Term::TypedLiteral("abc", "http://ex/t2"),
      Term::LangLiteral("abc", "en"),
      Term::LangLiteral("abc", "fr"),
      Term::Literal("abd"),
  });
  ExpectStrictlyAscending({Term::Iri("http://a"), Term::Iri("http://b")});
  ExpectStrictlyAscending({Term::BlankNode("b1"), Term::BlankNode("b2")});
}

TEST(CompareForOrderByTest, NonNumericTermsTieOnlyWhenEqual) {
  const std::vector<OptTerm> terms = {
      std::nullopt,
      Term::BlankNode("b1"),
      Term::BlankNode("b2"),
      Term::Iri("http://a"),
      Term::Iri("abc"),
      Term::Literal("abc"),
      Term::LangLiteral("abc", "en"),
      Term::TypedLiteral("abc", "http://ex/t1"),
      Term::TypedLiteral("abc", "http://a"),
      Term::BlankNode("abc"),
  };
  for (const OptTerm& a : terms) {
    for (const OptTerm& b : terms) {
      const int c = CompareForOrderBy(a, b);
      EXPECT_EQ(c == 0, a == b) << Show(a) << " vs " << Show(b);
      EXPECT_EQ(c, -CompareForOrderBy(b, a)) << Show(a) << " vs " << Show(b);
    }
  }
}

}  // namespace
}  // namespace rdfrel::store
