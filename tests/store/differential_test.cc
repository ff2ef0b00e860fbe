/// Randomized differential testing: random graphs and random queries must
/// produce identical answer multisets on the DB2RDF store (in several
/// configurations, including spill-heavy tiny-k ones) and the triple-store
/// baseline, and every answer must match the engine-independent reference
/// evaluator (tests/reference/). This is the strongest correctness net over
/// the optimizer, merger, translator, and engine together.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "reference/reference.h"
#include "sparql/parser.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"
#include "util/random.h"

namespace rdfrel::store {
namespace {

using rdf::Term;

constexpr int kNumPredicates = 8;
constexpr int kNumSubjects = 40;
constexpr int kNumObjects = 25;

/// Optimizer-pipeline options; every other field keeps its default.
QueryOptions Config(FlowMode flow, bool late_fusing, bool merging) {
  QueryOptions opts;
  opts.flow = flow;
  opts.late_fusing = late_fusing;
  opts.merging = merging;
  return opts;
}

Term Pred(uint64_t i) {
  return Term::Iri("http://d/p" + std::to_string(i));
}
Term Subj(uint64_t i) {
  return Term::Iri("http://d/s" + std::to_string(i));
}
Term Obj(uint64_t i) {
  // Mix IRIs and literals; IRIs overlap the subject space so chains and
  // triangles exist.
  if (i % 3 == 0) return Term::Literal("lit" + std::to_string(i));
  return Subj(i % kNumSubjects);
}

rdf::Graph RandomGraph(Random& rng, int num_triples) {
  rdf::Graph g;
  for (int i = 0; i < num_triples; ++i) {
    g.Add({Subj(rng.Uniform(kNumSubjects)),
           Pred(rng.Uniform(kNumPredicates)),
           Obj(rng.Uniform(kNumObjects))});
  }
  return g;
}

/// A random triple pattern over variables ?v0..?v3 and graph constants.
std::string RandomTriple(Random& rng) {
  auto component = [&](int pos) -> std::string {
    uint64_t die = rng.Uniform(10);
    if (pos == 1) {  // predicate: mostly constant, sometimes variable
      if (die < 8) {
        return "<http://d/p" + std::to_string(rng.Uniform(kNumPredicates)) +
               ">";
      }
      return "?v" + std::to_string(rng.Uniform(4));
    }
    if (die < 6) return "?v" + std::to_string(rng.Uniform(4));
    if (pos == 2 && die < 8) {
      uint64_t o = rng.Uniform(kNumObjects);
      if (o % 3 == 0) return "\"lit" + std::to_string(o) + "\"";
      return "<http://d/s" + std::to_string(o % kNumSubjects) + ">";
    }
    return "<http://d/s" + std::to_string(rng.Uniform(kNumSubjects)) + ">";
  };
  return component(0) + " " + component(1) + " " + component(2);
}

std::string RandomFilter(Random& rng) {
  uint64_t die = rng.Uniform(4);
  std::string var = "?v" + std::to_string(rng.Uniform(4));
  switch (die) {
    case 0:
      return "FILTER (BOUND(" + var + ")) ";
    case 1:
      return "FILTER (!BOUND(" + var + ")) ";
    case 2:
      return "FILTER (" + var + " = <http://d/s" +
             std::to_string(rng.Uniform(kNumSubjects)) + ">) ";
    default:
      return "FILTER (" + var + " != \"lit" +
             std::to_string(rng.Uniform(kNumObjects)) + "\") ";
  }
}

std::string RandomQuery(Random& rng) {
  std::string q = "SELECT * WHERE { ";
  uint64_t shape = rng.Uniform(6);
  int triples = 1 + static_cast<int>(rng.Uniform(3));
  switch (shape) {
    case 0:  // plain BGP
      for (int i = 0; i < triples; ++i) {
        q += RandomTriple(rng) + " . ";
      }
      break;
    case 1:  // BGP + UNION of two branches
      q += RandomTriple(rng) + " . { " + RandomTriple(rng) + " } UNION { " +
           RandomTriple(rng) + " } ";
      break;
    case 2:  // BGP + OPTIONAL
      for (int i = 0; i < triples; ++i) q += RandomTriple(rng) + " . ";
      q += "OPTIONAL { " + RandomTriple(rng) + " } ";
      break;
    case 3:  // UNION of BGPs
      q += "{ " + RandomTriple(rng) + " . " + RandomTriple(rng) +
           " } UNION { " + RandomTriple(rng) + " } ";
      break;
    case 4:  // BGP + FILTER
      for (int i = 0; i < triples; ++i) q += RandomTriple(rng) + " . ";
      q += RandomFilter(rng);
      break;
    default:  // star on a shared subject variable
      for (int i = 0; i < triples; ++i) {
        q += "?v0 <http://d/p" +
             std::to_string(rng.Uniform(kNumPredicates)) + "> ?o" +
             std::to_string(i) + " . ";
      }
      break;
  }
  q += "}";
  return q;
}

std::multiset<std::string> Signature(const ResultSet& rs) {
  std::multiset<std::string> out;
  for (const auto& row : rs.rows) {
    std::string sig;
    for (const auto& v : row) {
      sig += v.has_value() ? v->ToNTriples() : "UNBOUND";
      sig += "\x1f";
    }
    out.insert(sig);
  }
  return out;
}

struct DiffParam {
  uint64_t seed;
  uint32_t k;            // 0 = auto coloring
  bool use_coloring;
  uint32_t hash_fns;
};

class DifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(DifferentialTest, RandomQueriesAgreeAcrossBackendsAndConfigs) {
  const DiffParam& p = GetParam();
  Random rng(p.seed);
  rdf::Graph g1 = RandomGraph(rng, 300);

  // Re-generate identical graphs from the same stream position by reusing
  // the triples (decode/re-add).
  auto clone = [&](const rdf::Graph& g) {
    rdf::Graph out;
    for (const auto& t : g.triples()) {
      auto decoded = g.dictionary().DecodeTriple(t);
      out.Add(*decoded);
    }
    return out;
  };

  RdfStoreOptions opts;
  opts.k_direct = p.k;
  opts.k_reverse = p.k;
  opts.use_coloring = p.use_coloring;
  opts.hash_functions = p.hash_fns;
  auto db2rdf = RdfStore::Load(clone(g1), opts);
  ASSERT_TRUE(db2rdf.ok()) << db2rdf.status().ToString();
  auto triple = TripleStoreBackend::Load(clone(g1));
  ASSERT_TRUE(triple.ok());
  const reference::Evaluator reference(g1);

  int checked = 0;
  for (int i = 0; i < 40; ++i) {
    std::string q = RandomQuery(rng);
    auto a = (*db2rdf)->Query(q);
    auto b = (*triple)->Query(q);
    ASSERT_EQ(a.ok(), b.ok())
        << q << "\nDB2RDF: " << a.status().ToString()
        << "\ntriple: " << b.status().ToString();
    if (!a.ok()) continue;  // both rejected (e.g. unsupported shape)
    // Cap runaway cross products to keep the test fast.
    if (a->size() > 200000) continue;
    ASSERT_EQ(Signature(*a), Signature(*b))
        << "disagreement on query:\n"
        << q << "\nDB2RDF rows: " << a->size()
        << ", triple-store rows: " << b->size() << "\nSQL:\n"
        << (*db2rdf)->TranslateToSql(q).ValueOr("<err>");
    auto parsed = sparql::ParseQuery(q);
    ASSERT_TRUE(parsed.ok()) << q;
    auto expected = reference.Evaluate(*parsed, /*slice=*/false);
    ASSERT_TRUE(expected.ok()) << q << "\n" << expected.status().ToString();
    ASSERT_EQ(reference::Diff(*parsed, *expected, a->vars, a->rows), "")
        << "disagreement with the reference on:\n"
        << q;
    ++checked;

    // Also cross-check the ablation pipelines on a subset.
    if (i % 5 == 0) {
      for (QueryOptions qo :
           {Config(FlowMode::kParseOrder, true, true),
            Config(FlowMode::kGreedy, true, false),
            Config(FlowMode::kGreedy, false, false)}) {
        auto c = (*db2rdf)->QueryWith(q, qo);
        ASSERT_TRUE(c.ok()) << q << "\n" << c.status().ToString();
        ASSERT_EQ(Signature(*c), Signature(*a))
            << "ablation disagreement (flow=" << static_cast<int>(qo.flow)
            << " lf=" << qo.late_fusing << " merge=" << qo.merging
            << ") on:\n"
            << q;
      }
    }
  }
  EXPECT_GT(checked, 20);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialTest,
    ::testing::Values(
        DiffParam{1, 0, true, 2},   // default: auto coloring
        DiffParam{2, 0, true, 2},
        DiffParam{3, 16, false, 2},  // pure hashing
        DiffParam{4, 3, false, 1},   // tiny k: spill-heavy
        DiffParam{5, 2, false, 1},   // tinier k: everything spills
        DiffParam{6, 0, true, 3},
        DiffParam{7, 4, true, 2},    // forced small budget + fallback
        DiffParam{8, 3, false, 2},
        DiffParam{9, 0, true, 2},
        DiffParam{10, 8, false, 2},
        DiffParam{11, 2, true, 2},
        DiffParam{12, 0, true, 1}),
    [](const ::testing::TestParamInfo<DiffParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_k" +
             std::to_string(param_info.param.k) +
             (param_info.param.use_coloring ? "_color" : "_hash") + "_f" +
             std::to_string(param_info.param.hash_fns);
    });

}  // namespace
}  // namespace rdfrel::store
