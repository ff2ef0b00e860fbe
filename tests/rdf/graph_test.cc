#include "rdf/graph.h"

#include <gtest/gtest.h>

#include "util/hash.h"

namespace rdfrel::rdf {
namespace {

Graph SampleGraph() {
  Graph g;
  g.Add({Term::Iri("Flint"), Term::Iri("born"), Term::Literal("1850")});
  g.Add({Term::Iri("Flint"), Term::Iri("died"), Term::Literal("1934")});
  g.Add({Term::Iri("Flint"), Term::Iri("founder"), Term::Iri("IBM")});
  g.Add({Term::Iri("Page"), Term::Iri("born"), Term::Literal("1973")});
  g.Add({Term::Iri("Page"), Term::Iri("founder"), Term::Iri("Google")});
  return g;
}

TEST(GraphTest, SizeAndDistincts) {
  Graph g = SampleGraph();
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(g.DistinctSubjects().size(), 2u);
  EXPECT_EQ(g.DistinctPredicates().size(), 3u);
  EXPECT_EQ(g.DistinctObjects().size(), 5u);
}

TEST(GraphTest, GroupBySubjectPreservesFirstOccurrenceOrder) {
  Graph g = SampleGraph();
  auto groups = g.GroupBySubject();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].second.size(), 3u);  // Flint first
  EXPECT_EQ(groups[1].second.size(), 2u);  // Page second
  EXPECT_EQ(groups[0].second[0], 0u);
}

TEST(GraphTest, GroupByObjectSingletons) {
  Graph g = SampleGraph();
  auto groups = g.GroupByObject();
  EXPECT_EQ(groups.size(), 5u);
  for (auto& [id, idxs] : groups) {
    EXPECT_EQ(idxs.size(), 1u) << "object id " << id;
  }
}

TEST(GraphTest, DecodeAllRoundTrips) {
  Graph g = SampleGraph();
  auto decoded = g.DecodeAll();
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 5u);
  EXPECT_EQ((*decoded)[2].object, Term::Iri("IBM"));
}

TEST(GraphTest, SharedTermsEncodedOnce) {
  Graph g = SampleGraph();
  // Terms: Flint, born, 1850, died, 1934, founder, IBM, Page, 1973, Google.
  EXPECT_EQ(g.dictionary().size(), 10u);
}

TEST(GraphTest, AddEncodedAppends) {
  Graph g;
  uint64_t s = g.dictionary().Encode(Term::Iri("s"));
  uint64_t p = g.dictionary().Encode(Term::Iri("p"));
  uint64_t o = g.dictionary().Encode(Term::Iri("o"));
  g.AddEncoded({s, p, o});
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.triples()[0].subject, s);
}

TEST(GraphTest, DuplicateTriplesKept) {
  Graph g;
  Triple t{Term::Iri("s"), Term::Iri("p"), Term::Iri("o")};
  g.Add(t);
  g.Add(t);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_EQ(g.dictionary().size(), 3u);
}

TEST(GraphTest, DistinctTriplesComparesExactIds) {
  // Two distinct triples of the DBpedia generator's seed-102 graph whose
  // 64-bit HashCombine key is equal: a dedup on that key dropped one.
  const EncodedTriple type{22831, 2, 24};
  const EncodedTriple label{22831, 4, 8218};
  auto key = [](const EncodedTriple& t) {
    return HashCombine(HashCombine(Mix64(t.subject), t.predicate), t.object);
  };
  ASSERT_EQ(key(type), key(label));
  Graph g;
  g.AddEncoded(type);
  g.AddEncoded(label);
  g.AddEncoded(type);
  const std::vector<EncodedTriple> distinct = g.DistinctTriples();
  ASSERT_EQ(distinct.size(), 2u);
  EXPECT_EQ(distinct[0], type);
  EXPECT_EQ(distinct[1], label);
}

}  // namespace
}  // namespace rdfrel::rdf
