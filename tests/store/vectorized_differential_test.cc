/// Randomized checks of the vectorized engine through the full SPARQL
/// stack: every random query's answer on the DB2RDF store and on the
/// triple-store baseline must match the engine-independent reference
/// evaluator (tests/reference/). The generator covers BGPs, UNION (also
/// of same-shape branches that differ only in constants, which DB2RDF
/// folds into one plan), OPTIONAL, BOUND/REGEX/comparison FILTERs,
/// DISTINCT, and ORDER BY with LIMIT/OFFSET.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference/reference.h"
#include "sparql/parser.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"
#include "util/random.h"

namespace rdfrel::store {
namespace {

using rdf::Term;

constexpr int kNumPredicates = 6;
constexpr int kNumSubjects = 30;
constexpr int kNumObjects = 20;

Term Pred(uint64_t i) { return Term::Iri("http://d/p" + std::to_string(i)); }
Term Subj(uint64_t i) { return Term::Iri("http://d/s" + std::to_string(i)); }
/// Objects mix string literals, numeric literals (some equal in value
/// but not in lexical form: "6" and "6.0") and subject IRIs.
Term Obj(uint64_t i) {
  if (i % 3 == 0) return Term::Literal("lit" + std::to_string(i));
  if (i % 5 == 1) return Term::Literal(std::to_string(i));
  if (i % 5 == 2) return Term::Literal(std::to_string(i - 1) + ".0");
  return Subj(i % kNumSubjects);
}

rdf::Graph RandomGraph(uint64_t seed, int num_triples) {
  Random rng(seed);
  rdf::Graph g;
  for (int i = 0; i < num_triples; ++i) {
    g.Add({Subj(rng.Uniform(kNumSubjects)), Pred(rng.Uniform(kNumPredicates)),
           Obj(rng.Uniform(kNumObjects))});
  }
  return g;
}

std::string Var(Random& rng) { return "?v" + std::to_string(rng.Uniform(4)); }

std::string RandomTriple(Random& rng) {
  auto component = [&](int pos) -> std::string {
    uint64_t die = rng.Uniform(10);
    if (pos == 1) {
      if (die < 8) {
        return "<http://d/p" + std::to_string(rng.Uniform(kNumPredicates)) +
               ">";
      }
      return Var(rng);
    }
    if (die < 6) return Var(rng);
    return "<http://d/s" + std::to_string(rng.Uniform(kNumSubjects)) + ">";
  };
  return component(0) + " " + component(1) + " " + component(2);
}

std::string RandomFilter(Random& rng) {
  static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  const std::string var = Var(rng);
  switch (rng.Uniform(6)) {
    case 0:
      return "FILTER (BOUND(" + var + ")) ";
    case 1:
      return "FILTER (REGEX(" + var + ", \"" +
             (rng.Uniform(2) ? "lit1" : "s1") + "\")) ";
    case 2:
      return "FILTER (" + var + " " + kOps[rng.Uniform(6)] + " " +
             std::to_string(rng.Uniform(kNumObjects)) + ") ";
    case 3:
      return "FILTER (" + var + (rng.Uniform(2) ? " = " : " != ") +
             "<http://d/s" + std::to_string(rng.Uniform(kNumSubjects)) +
             ">) ";
    case 4:
      return "FILTER (" + var + (rng.Uniform(2) ? " = " : " != ") + Var(rng) +
             ") ";
    default:
      return "FILTER (!REGEX(" + var + ", \"lit\") && " + var + " != \"lit" +
             std::to_string(rng.Uniform(kNumObjects)) + "\") ";
  }
}

/// SPARQL text of Obj(i), or of an IRI absent from every graph.
std::string ObjText(uint64_t i) {
  if (i == kNumObjects) return "<http://d/absent>";
  const Term t = Obj(i);
  return t.is_iri() ? "<" + t.lexical() + ">" : "\"" + t.lexical() + "\"";
}

/// 2-4 UNION branches repeating one template of 1-3 triples whose constant
/// subjects/objects are drawn per branch from a small pool, so branches
/// repeat tuples, hit absent terms, or share every constant. Half of the
/// templates use one constant subject per branch for all their triples,
/// and half one constant object, so the branches can merge into stars on
/// a constant entry.
std::string SameShapeUnion(Random& rng) {
  struct Part {
    std::string var;  ///< empty: a constant drawn per branch
  };
  struct Shape {
    Part s, o;
    std::string p;
  };
  std::vector<Shape> shape(1 + rng.Uniform(3));
  for (Shape& t : shape) {
    t.s.var = rng.Uniform(3) == 0 ? "" : Var(rng);
    t.p = "<http://d/p" + std::to_string(rng.Uniform(kNumPredicates)) + ">";
    t.o.var = rng.Uniform(2) == 0 ? "" : Var(rng);
  }
  const bool shared_s = rng.Uniform(2) == 0;
  const bool shared_o = rng.Uniform(2) == 0;
  std::string q = "{ ";
  const uint64_t branches = 2 + rng.Uniform(3);
  for (uint64_t b = 0; b < branches; ++b) {
    if (b) q += "UNION ";
    q += "{ ";
    const uint64_t branch_s = rng.Uniform(4);
    const uint64_t branch_o = rng.Uniform(kNumObjects + 1);
    for (const Shape& t : shape) {
      q += t.s.var.empty()
               ? "<http://d/s" +
                     std::to_string(shared_s ? branch_s : rng.Uniform(4)) +
                     ">"
               : t.s.var;
      q += " " + t.p + " ";
      q += t.o.var.empty()
               ? ObjText(shared_o ? branch_o : rng.Uniform(kNumObjects + 1))
               : t.o.var;
      q += " . ";
    }
    q += "} ";
  }
  return q + "} ";
}

std::string RandomQuery(Random& rng) {
  const bool distinct = rng.Uniform(4) == 0;
  std::string q = distinct ? "SELECT DISTINCT ?v0 ?v1 WHERE { "
                           : "SELECT * WHERE { ";
  uint64_t shape = rng.Uniform(6);
  int triples = 1 + static_cast<int>(rng.Uniform(3));
  switch (shape) {
    case 0:
      for (int i = 0; i < triples; ++i) q += RandomTriple(rng) + " . ";
      break;
    case 1:
      q += RandomTriple(rng) + " . { " + RandomTriple(rng) + " } UNION { " +
           RandomTriple(rng) + " } ";
      break;
    case 2:
      for (int i = 0; i < triples; ++i) q += RandomTriple(rng) + " . ";
      q += "OPTIONAL { " + RandomTriple(rng) + " } ";
      break;
    case 3:
      for (int i = 0; i < triples; ++i) q += RandomTriple(rng) + " . ";
      q += RandomFilter(rng);
      break;
    case 4:
      if (rng.Uniform(2)) q += RandomTriple(rng) + " . ";
      q += SameShapeUnion(rng);
      break;
    default:  // star on a shared subject variable
      for (int i = 0; i < triples; ++i) {
        q += "?v0 <http://d/p" + std::to_string(rng.Uniform(kNumPredicates)) +
             "> ?o" + std::to_string(i) + " . ";
      }
      break;
  }
  q += "}";
  switch (rng.Uniform(6)) {
    case 0:  // ORDER BY + slice: the order decides which rows survive
      q += " ORDER BY " + std::string(rng.Uniform(2) ? "DESC(?v0)" : "?v1");
      q += " LIMIT " + std::to_string(1 + rng.Uniform(10));
      if (rng.Uniform(2)) q += " OFFSET " + std::to_string(rng.Uniform(5));
      break;
    case 1:  // slice alone: any rows of the answer, but exactly so many
      q += " LIMIT " + std::to_string(rng.Uniform(8));
      if (rng.Uniform(2)) q += " OFFSET " + std::to_string(rng.Uniform(6));
      break;
    case 2:
      q += " OFFSET " + std::to_string(1 + rng.Uniform(6));
      break;
    default:
      break;
  }
  return q;
}

/// Runs \p num_queries random queries on \p store and checks each answer
/// against \p reference. Returns how many queries' SQL tests an IN list
/// (a folded UNION, on DB2RDF).
template <typename Store>
int CheckStoreAgainstReference(Store& store,
                               const reference::Evaluator& reference,
                               Random& rng, int num_queries) {
  int folded = 0;
  for (int i = 0; i < num_queries; ++i) {
    const std::string text = RandomQuery(rng);
    auto q = sparql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text << "\n" << q.status().ToString();
    if (!q.ok()) return folded;
    auto expected = reference.Evaluate(*q, /*slice=*/false);
    EXPECT_TRUE(expected.ok()) << text << "\n"
                               << expected.status().ToString();
    if (!expected.ok()) return folded;
    auto got = store.Query(text);
    EXPECT_TRUE(got.ok()) << text << "\n" << got.status().ToString();
    if (!got.ok()) return folded;
    auto sql = store.TranslateToSql(text);
    EXPECT_EQ(reference::Diff(*q, *expected, got->vars, got->rows), "")
        << "disagreement with the reference on:\n"
        << text << "\nrows: " << got->size() << "\n"
        << (sql.ok() ? *sql : sql.status().ToString());
    if (sql.ok() && sql->find(" IN (") != std::string::npos) ++folded;
  }
  return folded;
}

TEST(VectorizedDifferentialTest, Db2RdfStoreMatchesReference) {
  rdf::Graph g = RandomGraph(20260806, 250);
  const reference::Evaluator reference(g);
  auto store = RdfStore::Load(std::move(g), {});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Random rng(20260806);
  EXPECT_GE(CheckStoreAgainstReference(**store, reference, rng, 300), 10)
      << "too few random UNIONs folded";
}

TEST(VectorizedDifferentialTest, TripleStoreMatchesReference) {
  rdf::Graph g = RandomGraph(4096, 250);
  const reference::Evaluator reference(g);
  auto store = TripleStoreBackend::Load(std::move(g));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Random rng(4096);
  CheckStoreAgainstReference(**store, reference, rng, 300);
}

TEST(VectorizedDifferentialTest, ExplainIncludesExecutionProfile) {
  rdf::Graph g = RandomGraph(7, 100);
  auto store = RdfStore::Load(std::move(g), {});
  ASSERT_TRUE(store.ok());
  auto ex = (*store)->Explain(
      "SELECT ?s ?o WHERE { ?s <http://d/p0> ?o }", {});
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_FALSE(ex->exec_stats.empty());
  EXPECT_NE(ex->exec_stats.find("rows="), std::string::npos)
      << ex->exec_stats;
  EXPECT_NE(ex->exec_stats.find("batches="), std::string::npos)
      << ex->exec_stats;
}

}  // namespace
}  // namespace rdfrel::store
