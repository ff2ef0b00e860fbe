/// Oracle test for the data flow graph builders. It holds the original
/// quadratic formulations — the all-pairs DataFlowGraph::Build over a
/// map-based pattern-tree index, and the greedy flow tree that rescans the
/// sorted edge list after every addition — and checks that the indexed
/// builders produce the same nodes, edges (in order), out-edge lists and
/// greedy choices on every workload query and on hand-built shapes. Equal
/// choices mean equal exec trees, so the generated SQL is unchanged.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/micro.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "opt/cost_model.h"
#include "opt/data_flow_graph.h"
#include "opt/flow_tree.h"
#include "opt/plan_verifier.h"
#include "opt/statistics.h"
#include "sparql/parser.h"

namespace rdfrel::opt {
namespace {

inline size_t U(int i) { return static_cast<size_t>(i); }

// ------------------------------------------------------------ oracle copies

/// The pattern-tree index as first written: std::map-backed, LCA by
/// pointer walks.
class OracleTreeIndex {
 public:
  explicit OracleTreeIndex(const sparql::Pattern& root) {
    Walk(&root, nullptr, 0);
  }

  const sparql::Pattern* Lca(int t1, int t2) const {
    const sparql::Pattern* a = leaf_of_triple_.at(t1);
    const sparql::Pattern* b = leaf_of_triple_.at(t2);
    int da = info_.at(a).depth, db = info_.at(b).depth;
    while (da > db) {
      a = info_.at(a).parent;
      --da;
    }
    while (db > da) {
      b = info_.at(b).parent;
      --db;
    }
    while (a != b) {
      a = info_.at(a).parent;
      b = info_.at(b).parent;
    }
    return a;
  }

  bool OrConnected(int t1, int t2) const {
    if (t1 == t2) return false;
    return Lca(t1, t2)->kind == sparql::PatternKind::kOr;
  }

  bool OptionalConnected(int t, int t_prime) const {
    if (t == t_prime) return false;
    const sparql::Pattern* lca = Lca(t, t_prime);
    const sparql::Pattern* n = leaf_of_triple_.at(t_prime);
    while (n != lca) {
      if (n->kind == sparql::PatternKind::kOptional) return true;
      n = info_.at(n).parent;
    }
    return false;
  }

  const sparql::TriplePattern* Triple(int id) const {
    return triples_.at(static_cast<size_t>(id - 1));
  }
  const sparql::Pattern* LeafOf(int id) const {
    return leaf_of_triple_.at(id);
  }
  const sparql::Pattern* ParentOf(const sparql::Pattern* node) const {
    return info_.at(node).parent;
  }
  int num_triples() const { return static_cast<int>(triples_.size()); }

 private:
  struct NodeInfo {
    const sparql::Pattern* node;
    const sparql::Pattern* parent;
    int depth;
  };
  void Walk(const sparql::Pattern* node, const sparql::Pattern* parent,
            int depth) {
    info_[node] = {node, parent, depth};
    if (node->kind == sparql::PatternKind::kTriple) {
      leaf_of_triple_[node->triple.id] = node;
      if (node->triple.id > static_cast<int>(triples_.size())) {
        triples_.resize(static_cast<size_t>(node->triple.id));
      }
      triples_[static_cast<size_t>(node->triple.id - 1)] = &node->triple;
      return;
    }
    for (const auto& c : node->children) Walk(c.get(), node, depth + 1);
  }

  std::map<const sparql::Pattern*, NodeInfo> info_;
  std::map<int, const sparql::Pattern*> leaf_of_triple_;
  std::vector<const sparql::TriplePattern*> triples_;
};

struct OracleGraph {
  std::vector<FlowNode> nodes;
  std::vector<FlowEdge> edges;
  std::vector<std::vector<int>> out;
};

/// The all-pairs Definition 3.8 build.
OracleGraph OracleBuild(const CostModel& cost, const OracleTreeIndex& tree) {
  OracleGraph g;
  g.nodes.push_back(FlowNode{});  // root at index 0

  static constexpr AccessMethod kMethods[] = {
      AccessMethod::kAcs, AccessMethod::kAco, AccessMethod::kScan};
  for (int t = 1; t <= tree.num_triples(); ++t) {
    const sparql::TriplePattern& tp = *tree.Triple(t);
    for (AccessMethod m : kMethods) {
      if (!MethodApplicable(tp, m)) continue;
      FlowNode node;
      node.triple_id = t;
      node.method = m;
      node.cost = cost.Tmc(tp, m);
      g.nodes.push_back(node);
    }
  }

  g.out.resize(g.nodes.size());
  auto add_edge = [&](int from, int to, double w) {
    g.out[static_cast<size_t>(from)].push_back(
        static_cast<int>(g.edges.size()));
    g.edges.push_back(FlowEdge{from, to, w});
  };

  for (size_t j = 1; j < g.nodes.size(); ++j) {
    const FlowNode& target = g.nodes[j];
    const sparql::TriplePattern& tt = *tree.Triple(target.triple_id);
    std::vector<std::string> req = RequiredVars(tt, target.method);
    if (req.empty()) {
      add_edge(0, static_cast<int>(j), target.cost);
      continue;
    }
    for (size_t i = 1; i < g.nodes.size(); ++i) {
      if (i == j) continue;
      const FlowNode& source = g.nodes[i];
      if (source.triple_id == target.triple_id) continue;
      if (tree.OrConnected(source.triple_id, target.triple_id)) continue;
      if (tree.OptionalConnected(target.triple_id, source.triple_id)) {
        continue;
      }
      const sparql::TriplePattern& st = *tree.Triple(source.triple_id);
      std::vector<std::string> produced = ProducedVars(st, source.method);
      bool covers = std::all_of(req.begin(), req.end(),
                                [&](const std::string& v) {
                                  return std::find(produced.begin(),
                                                   produced.end(),
                                                   v) != produced.end();
                                });
      if (covers) add_edge(static_cast<int>(i), static_cast<int>(j),
                           target.cost);
    }
  }
  return g;
}

bool OraclePathAdmissible(const OracleTreeIndex& tree,
                          const std::vector<int>& path, int target_triple) {
  for (int p : path) {
    if (tree.OrConnected(p, target_triple)) return false;
    if (tree.OptionalConnected(target_triple, p)) return false;
  }
  return true;
}

/// Figure 9's greedy loop, restarting from the cheapest edge after every
/// addition.
std::vector<FlowChoice> OracleGreedy(const OracleGraph& g,
                                     const OracleTreeIndex& tree) {
  const auto& nodes = g.nodes;
  const auto& edges = g.edges;
  int num_triples = tree.num_triples();

  std::vector<int> order(edges.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return edges[U(a)].weight < edges[U(b)].weight;
  });

  std::vector<FlowChoice> choices;
  std::vector<bool> node_in_tree(nodes.size(), false);
  node_in_tree[0] = true;
  std::vector<bool> triple_covered(U(num_triples + 1), false);
  std::vector<std::vector<int>> path(nodes.size());

  while (static_cast<int>(choices.size()) < num_triples) {
    bool progressed = false;
    for (int ei : order) {
      const FlowEdge& e = edges[U(ei)];
      if (!node_in_tree[U(e.from)]) continue;
      const FlowNode& target = nodes[U(e.to)];
      if (node_in_tree[U(e.to)] || triple_covered[U(target.triple_id)]) {
        continue;
      }
      if (!OraclePathAdmissible(tree, path[U(e.from)], target.triple_id)) {
        continue;
      }
      node_in_tree[U(e.to)] = true;
      triple_covered[U(target.triple_id)] = true;
      path[U(e.to)] = path[U(e.from)];
      path[U(e.to)].push_back(target.triple_id);
      FlowChoice c;
      c.triple_id = target.triple_id;
      c.method = target.method;
      c.parent_triple = nodes[U(e.from)].triple_id;
      c.cost = e.weight;
      c.rank = static_cast<int>(choices.size());
      choices.push_back(c);
      progressed = true;
      break;
    }
    if (!progressed) break;
  }
  return choices;
}

// ------------------------------------------------------------------ checks

/// Pairwise guard checks cost O(triples²); beyond this only the
/// per-triple ancestor chains are compared.
constexpr int kPairwiseGuardLimit = 120;

void ExpectTreeIndexMatches(const sparql::Query& q, const std::string& where) {
  OracleTreeIndex oracle(*q.where);
  QueryTreeIndex tree(*q.where);
  ASSERT_EQ(tree.num_triples(), oracle.num_triples()) << where;
  const int n = tree.num_triples();
  for (int t = 1; t <= n; ++t) {
    ASSERT_EQ(tree.Triple(t), oracle.Triple(t)) << where << " t" << t;
    // Same ancestor chain, leaf to root.
    const sparql::Pattern* o = oracle.LeafOf(t);
    int node = tree.LeafNode(t);
    for (; o != nullptr; o = oracle.ParentOf(o), node = tree.Parent(node)) {
      ASSERT_GE(node, 0) << where << " t" << t;
      ASSERT_EQ(tree.Node(node), o) << where << " t" << t;
      ASSERT_EQ(tree.Kind(node), o->kind) << where << " t" << t;
    }
    ASSERT_EQ(node, -1) << where << " t" << t;
  }
  if (n > kPairwiseGuardLimit) return;
  for (int a = 1; a <= n; ++a) {
    for (int b = 1; b <= n; ++b) {
      ASSERT_EQ(tree.Lca(a, b), oracle.Lca(a, b))
          << where << " t" << a << ",t" << b;
      ASSERT_EQ(tree.OrConnected(a, b), oracle.OrConnected(a, b))
          << where << " t" << a << ",t" << b;
      ASSERT_EQ(tree.OptionalConnected(a, b), oracle.OptionalConnected(a, b))
          << where << " t" << a << ",t" << b;
    }
  }
}

void ExpectBuildersMatchOracle(const sparql::Query& q, const CostModel& cost,
                               const std::string& where) {
  ASSERT_NO_FATAL_FAILURE(ExpectTreeIndexMatches(q, where));

  OracleTreeIndex oracle_tree(*q.where);
  OracleGraph want = OracleBuild(cost, oracle_tree);
  DataFlowGraph got = DataFlowGraph::Build(q, cost);

  ASSERT_EQ(got.nodes().size(), want.nodes.size()) << where;
  for (size_t i = 0; i < want.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes()[i].triple_id, want.nodes[i].triple_id) << where;
    EXPECT_EQ(got.nodes()[i].method, want.nodes[i].method) << where;
    EXPECT_EQ(got.nodes()[i].cost, want.nodes[i].cost) << where;
  }
  ASSERT_EQ(got.edges().size(), want.edges.size()) << where;
  for (size_t i = 0; i < want.edges.size(); ++i) {
    const FlowEdge& g = got.edges()[i];
    const FlowEdge& w = want.edges[i];
    ASSERT_TRUE(g.from == w.from && g.to == w.to && g.weight == w.weight)
        << where << ": edge " << i << " is " << g.from << "->" << g.to
        << ", oracle " << w.from << "->" << w.to;
  }
  for (size_t i = 0; i < want.out.size(); ++i) {
    ASSERT_EQ(got.OutEdges(static_cast<int>(i)), want.out[i])
        << where << ": out-edges of node " << i;
  }

  FlowTree flow = GreedyFlowTree(got);
  std::vector<FlowChoice> want_choices = OracleGreedy(want, oracle_tree);
  ASSERT_EQ(flow.choices().size(), want_choices.size()) << where;
  for (size_t i = 0; i < want_choices.size(); ++i) {
    const FlowChoice& g = flow.choices()[i];
    const FlowChoice& w = want_choices[i];
    EXPECT_EQ(g.triple_id, w.triple_id) << where << " choice " << i;
    EXPECT_EQ(g.method, w.method) << where << " choice " << i;
    EXPECT_EQ(g.parent_triple, w.parent_triple) << where << " choice " << i;
    EXPECT_EQ(g.cost, w.cost) << where << " choice " << i;
    EXPECT_EQ(g.rank, w.rank) << where << " choice " << i;
  }
  Status verified = VerifyFlowTree(got, flow, FlowVerifyLevel::kStrict);
  EXPECT_TRUE(verified.ok()) << where << ": " << verified.ToString();
}

// ------------------------------------------------------- workload queries

benchdata::Workload MakeSmall(const std::string& name) {
  if (name == "micro") return benchdata::MakeMicro(200, 5);
  if (name == "lubm") return benchdata::MakeLubm(1, 5);
  if (name == "sp2bench") return benchdata::MakeSp2Bench(2, 5);
  if (name == "dbpedia") return benchdata::MakeDbpedia(200, 150, 5);
  if (name == "prbench") return benchdata::MakePrbench(1, 5);
  return {};
}

class DataFlowOracleTestWorkloads
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DataFlowOracleTestWorkloads, EveryQueryMatchesOracle) {
  benchdata::Workload w = MakeSmall(GetParam());
  ASSERT_FALSE(w.queries.empty());
  Statistics stats = Statistics::FromGraph(w.graph);
  CostModel cost(&stats, &w.graph.dictionary());
  for (const auto& nq : w.queries) {
    auto q = sparql::ParseQuery(nq.sparql);
    ASSERT_TRUE(q.ok()) << nq.id << ": " << q.status().ToString();
    ExpectBuildersMatchOracle(*q, cost, w.name + "/" + nq.id);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DataFlowOracleTestWorkloads,
                         ::testing::Values("micro", "lubm", "sp2bench",
                                           "dbpedia", "prbench"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// ------------------------------------------------------- hand-built shapes

/// A few facts so the cost model separates the predicates.
rdf::Graph ShapeGraph() {
  rdf::Graph g;
  auto iri = [](const std::string& s) {
    return rdf::Term::Iri("http://s/" + s);
  };
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);
    const std::string b = std::string("b").append(std::to_string(i % 7));
    g.Add({iri("a" + n), iri("p"), iri(b)});
    g.Add({iri(b), iri("q"), iri("c" + n)});
    if (i % 3 == 0) g.Add({iri("c" + n), iri("r"), iri("a" + n)});
    if (i % 5 == 0) g.Add({iri("a" + n), iri("s"), rdf::Term::Literal(n)});
  }
  return g;
}

void ExpectShapeMatchesOracle(const std::string& where_clause,
                              const std::string& name) {
  rdf::Graph graph = ShapeGraph();
  Statistics stats = Statistics::FromGraph(graph);
  CostModel cost(&stats, &graph.dictionary());
  auto q = sparql::ParseQuery("PREFIX : <http://s/> SELECT * WHERE { " +
                              where_clause + " }");
  ASSERT_TRUE(q.ok()) << name << ": " << q.status().ToString();
  ExpectBuildersMatchOracle(*q, cost, name);
}

TEST(DataFlowOracleTest, OptionalInsideUnionBranch) {
  ExpectShapeMatchesOracle(
      "{ ?x :p ?y OPTIONAL { ?y :q ?z . ?z :r ?x } } UNION "
      "{ ?x :s ?w . ?x :p ?y OPTIONAL { ?y :q ?w } }",
      "optional-in-union");
}

TEST(DataFlowOracleTest, UnionInsideOptional) {
  ExpectShapeMatchesOracle(
      "?x :p ?y OPTIONAL { { ?y :q ?z } UNION { ?y :r ?z . ?z :s ?x } "
      "?z :p ?w } ?w :q ?x",
      "union-in-optional");
}

TEST(DataFlowOracleTest, NestedOptionals) {
  ExpectShapeMatchesOracle(
      "?x :p ?y OPTIONAL { ?y :q ?z OPTIONAL { ?z :r ?w OPTIONAL "
      "{ ?w :s ?x . ?y :p ?z } } ?x :q ?w } ?x :s ?z",
      "nested-optionals");
}

TEST(DataFlowOracleTest, RepeatedVariableInOneTriple) {
  ExpectShapeMatchesOracle("?x :p ?x . ?x :q ?y . ?y :r ?x",
                           "repeated-variable");
}

TEST(DataFlowOracleTest, VariablePredicate) {
  ExpectShapeMatchesOracle("?s ?p ?o . ?o ?p ?s . ?s :q ?p",
                           "variable-predicate");
}

TEST(DataFlowOracleTest, AllConstantTriple) {
  ExpectShapeMatchesOracle(":a0 :p :b0 . ?x :p :b0 . :a0 :q ?x",
                           "all-constant");
}

TEST(DataFlowOracleTest, ThousandBranchUnion) {
  // Mandatory triples before and after the UNION feed every branch across
  // the OR boundary; the branches must not feed each other.
  std::string where = "?x :p ?y . ";
  for (int i = 0; i < 1000; ++i) {
    if (i > 0) where += " UNION ";
    where += "{ ?y :q ?z" + std::to_string(i % 13) + " }";
  }
  where += " ?z0 :r ?x";
  ExpectShapeMatchesOracle(where, "union-1000");
}

}  // namespace
}  // namespace rdfrel::opt
