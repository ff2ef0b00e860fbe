#include <gtest/gtest.h>

#include "opt/cost_model.h"
#include "opt/data_flow_graph.h"
#include "opt/exec_tree.h"
#include "opt/flow_tree.h"
#include "opt/merge.h"
#include "opt/plan_verifier.h"
#include "opt/statistics.h"
#include "sparql/parser.h"

namespace rdfrel::opt {
namespace {

using rdf::Term;
using sparql::PatternKind;

/// A dataset shaped like the paper's running example (Figure 6): few
/// "Software" companies (selective aco), many people living in Palo Alto
/// (unselective aco on t1), founders/members/developers/revenue/employees.
rdf::Graph ExampleGraph() {
  rdf::Graph g;
  auto iri = [](const std::string& s) { return Term::Iri(s); };
  auto lit = [](const std::string& s) { return Term::Literal(s); };
  // 2 software companies.
  for (int c = 0; c < 2; ++c) {
    std::string comp = "Comp" + std::to_string(c);
    g.Add({iri(comp), iri("industry"), lit("Software")});
    g.Add({iri(comp), iri("revenue"),
           lit(std::string("R").append(std::to_string(c)))});
    g.Add({iri(comp), iri("employees"),
           lit(std::string("E").append(std::to_string(c)))});
    g.Add({iri("Product" + std::to_string(c)), iri("developer"), iri(comp)});
    g.Add({iri("Person" + std::to_string(c)), iri("founder"), iri(comp)});
    g.Add({iri("Person" + std::to_string(c)), iri("member"), iri(comp)});
  }
  // 30 people at home in Palo Alto (makes ?x home "Palo Alto" unselective).
  for (int p = 0; p < 30; ++p) {
    g.Add({iri("Person" + std::to_string(p)), iri("home"), lit("Palo Alto")});
  }
  // Plus assorted non-software companies.
  for (int c = 2; c < 12; ++c) {
    std::string comp = "Comp" + std::to_string(c);
    g.Add({iri(comp), iri("industry"), lit("Retail")});
  }
  return g;
}

sparql::Query Figure6Query() {
  auto q = sparql::ParseQuery(R"(
    PREFIX : <>
    SELECT * WHERE {
      ?x :home "Palo Alto" .
      { ?x :founder ?y } UNION { ?x :member ?y }
      ?y :industry "Software" .
      ?z :developer ?y .
      ?y :revenue ?n .
      OPTIONAL { ?y :employees ?m }
    })");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

struct Fixture {
  rdf::Graph graph = ExampleGraph();
  Statistics stats;
  sparql::Query query = Figure6Query();

  Fixture() { stats = Statistics::FromGraph(graph, 0); }
  CostModel cost() const { return CostModel(&stats, &graph.dictionary()); }
};

TEST(StatisticsTest, BasicCounts) {
  rdf::Graph g;
  g.Add({Term::Iri("a"), Term::Iri("p"), Term::Iri("x")});
  g.Add({Term::Iri("a"), Term::Iri("p"), Term::Iri("y")});
  g.Add({Term::Iri("b"), Term::Iri("q"), Term::Iri("x")});
  Statistics s = Statistics::FromGraph(g, 0);
  EXPECT_EQ(s.total_triples(), 3u);
  EXPECT_EQ(s.distinct_subjects(), 2u);
  EXPECT_EQ(s.distinct_objects(), 2u);
  EXPECT_DOUBLE_EQ(s.avg_triples_per_subject(), 1.5);
  EXPECT_DOUBLE_EQ(s.avg_triples_per_object(), 1.5);
  uint64_t a = g.dictionary().Lookup(Term::Iri("a"));
  uint64_t x = g.dictionary().Lookup(Term::Iri("x"));
  uint64_t p = g.dictionary().Lookup(Term::Iri("p"));
  EXPECT_DOUBLE_EQ(s.EstimateBySubject(a, s.avg_triples_per_subject()), 2.0);
  EXPECT_DOUBLE_EQ(s.EstimateByObject(x, s.avg_triples_per_object()), 2.0);
  EXPECT_EQ(s.CountByPredicate(p), 2u);
}

TEST(StatisticsTest, TopKFallsBackToAverage) {
  rdf::Graph g;
  // One hot subject with 10 triples, 10 cold subjects with 1 each.
  for (int i = 0; i < 10; ++i) {
    g.Add({Term::Iri("hot"), Term::Iri("p"),
           Term::Iri(std::string("o").append(std::to_string(i)))});
    g.Add({Term::Iri("cold" + std::to_string(i)), Term::Iri("p"),
           Term::Iri("x")});
  }
  Statistics s = Statistics::FromGraph(g, 1);
  uint64_t hot = g.dictionary().Lookup(Term::Iri("hot"));
  uint64_t cold = g.dictionary().Lookup(Term::Iri("cold3"));
  const double avg = s.avg_triples_per_subject();
  EXPECT_DOUBLE_EQ(s.EstimateBySubject(hot, avg), 10.0);  // exact (top-1)
  EXPECT_DOUBLE_EQ(s.EstimateBySubject(cold, avg), avg);  // averaged
}

/// `:memberOf` shaped: 80 students, each a member of one of 2 departments
/// (1:1 on the subject side, 1:40 on the object side), next to a `:knows`
/// predicate whose 1 subject has 20 objects, so the graph-wide averages
/// differ from both of memberOf's fan-outs.
rdf::Graph MemberOfGraph() {
  rdf::Graph g;
  for (int i = 0; i < 80; ++i) {
    g.Add({Term::Iri("s" + std::to_string(i)), Term::Iri("memberOf"),
           Term::Iri("d" + std::to_string(i % 2))});
  }
  for (int i = 0; i < 20; ++i) {
    g.Add({Term::Iri("hub"), Term::Iri("knows"),
           Term::Iri("k" + std::to_string(i))});
  }
  return g;
}

TEST(StatisticsTest, PerPredicateFanout) {
  rdf::Graph g = MemberOfGraph();
  Statistics s = Statistics::FromGraph(g, 0);
  const uint64_t member_of = g.dictionary().Lookup(Term::Iri("memberOf"));
  const uint64_t knows = g.dictionary().Lookup(Term::Iri("knows"));
  EXPECT_DOUBLE_EQ(s.SubjectFanout(member_of), 1.0);
  EXPECT_DOUBLE_EQ(s.ObjectFanout(member_of), 40.0);
  EXPECT_DOUBLE_EQ(s.SubjectFanout(knows), 20.0);
  EXPECT_DOUBLE_EQ(s.ObjectFanout(knows), 1.0);
  // Graph-wide: 100 triples over 81 subjects and 22 objects.
  EXPECT_DOUBLE_EQ(s.avg_triples_per_subject(), 100.0 / 81.0);
  EXPECT_DOUBLE_EQ(s.avg_triples_per_object(), 100.0 / 22.0);
  EXPECT_EQ(s.predicate_distinct_subject_map().at(member_of), 80u);
  EXPECT_EQ(s.predicate_distinct_object_map().at(member_of), 2u);
}

TEST(StatisticsTest, FanoutFollowsWritesAndFallsBack) {
  rdf::Graph g = MemberOfGraph();
  Statistics s = Statistics::FromGraph(g, 0);
  const uint64_t member_of = g.dictionary().Lookup(Term::Iri("memberOf"));
  const uint64_t knows = g.dictionary().Lookup(Term::Iri("knows"));
  const uint64_t d0 = g.dictionary().Lookup(Term::Iri("d0"));
  const uint64_t hub = g.dictionary().Lookup(Term::Iri("hub"));
  const uint64_t s0 = g.dictionary().Lookup(Term::Iri("s0"));
  const uint64_t unseen = g.dictionary().Encode(Term::Iri("advisor"));
  const double avg_s = s.avg_triples_per_subject();
  const double avg_o = s.avg_triples_per_object();

  // count(p) is exact under writes; the distinct counts keep their
  // load-time values, so the fan-out follows the count.
  s.AddTriple({s0, member_of, d0});
  EXPECT_EQ(s.CountByPredicate(member_of), 81u);
  EXPECT_DOUBLE_EQ(s.SubjectFanout(member_of), 81.0 / 80.0);
  EXPECT_DOUBLE_EQ(s.ObjectFanout(member_of), 81.0 / 2.0);
  s.RemoveTriple({s0, member_of, d0});
  s.RemoveTriple({s0, member_of, d0});
  EXPECT_EQ(s.CountByPredicate(member_of), 79u);
  EXPECT_DOUBLE_EQ(s.SubjectFanout(member_of), 79.0 / 80.0);

  // A predicate unseen at load has no distinct counts: the averages.
  s.AddTriple({s0, unseen, d0});
  EXPECT_EQ(s.CountByPredicate(unseen), 1u);
  EXPECT_DOUBLE_EQ(s.SubjectFanout(unseen), avg_s);
  EXPECT_DOUBLE_EQ(s.ObjectFanout(unseen), avg_o);

  // A predicate removed to 0 falls back to the averages too.
  for (int i = 0; i < 20; ++i) {
    s.RemoveTriple({hub, knows, g.dictionary().Lookup(Term::Iri(
                                    "k" + std::to_string(i)))});
  }
  EXPECT_EQ(s.CountByPredicate(knows), 0u);
  EXPECT_DOUBLE_EQ(s.SubjectFanout(knows), avg_s);
  EXPECT_DOUBLE_EQ(s.ObjectFanout(knows), avg_o);
}

TEST(CostModelTest, ConstantPredicateUsesItsFanout) {
  rdf::Graph g = MemberOfGraph();
  // Top-1 tracking: "hub" takes the subject slot, so "s5" is untracked.
  Statistics s = Statistics::FromGraph(g, 1);
  CostModel cm(&s, &g.dictionary());
  auto triple = [](const std::string& text) {
    auto q = sparql::ParseQuery("SELECT * WHERE { " + text + " }");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    std::vector<const sparql::TriplePattern*> ts;
    q->where->CollectTriples(&ts);
    return *ts.at(0);
  };
  // Variable entries on a constant predicate: its own fan-outs.
  sparql::TriplePattern member = triple("?x <memberOf> ?z");
  EXPECT_DOUBLE_EQ(cm.Tmc(member, AccessMethod::kAcs), 1.0);
  EXPECT_DOUBLE_EQ(cm.Tmc(member, AccessMethod::kAco), 40.0);
  // An untracked constant entry: the fan-out, not the graph average.
  EXPECT_DOUBLE_EQ(cm.Tmc(triple("<s5> <memberOf> ?z"), AccessMethod::kAcs),
                   1.0);
  // A tracked constant entry keeps its exact count.
  EXPECT_DOUBLE_EQ(cm.Tmc(triple("<hub> <knows> ?z"), AccessMethod::kAcs),
                   20.0);
  // A variable predicate keeps the graph-wide averages.
  sparql::TriplePattern any = triple("?x ?p ?z");
  EXPECT_DOUBLE_EQ(cm.Tmc(any, AccessMethod::kAcs),
                   s.avg_triples_per_subject());
  EXPECT_DOUBLE_EQ(cm.Tmc(any, AccessMethod::kAco),
                   s.avg_triples_per_object());
  // A constant predicate absent from the dictionary matches nothing.
  EXPECT_DOUBLE_EQ(cm.Tmc(triple("?x <nope> ?z"), AccessMethod::kAcs), 0.0);
}

TEST(CostModelTest, PaperExampleOrdering) {
  Fixture s;
  CostModel cm = s.cost();
  std::vector<const sparql::TriplePattern*> ts;
  s.query.where->CollectTriples(&ts);
  const auto& t1 = *ts[0];  // ?x home "Palo Alto"
  const auto& t4 = *ts[3];  // ?y industry "Software"
  // Scan costs the whole dataset.
  EXPECT_DOUBLE_EQ(cm.Tmc(t4, AccessMethod::kScan),
                   static_cast<double>(s.stats.total_triples()));
  // aco on "Software" is selective (2 companies).
  EXPECT_DOUBLE_EQ(cm.Tmc(t4, AccessMethod::kAco), 2.0);
  // aco on "Palo Alto" is not (30 residents).
  EXPECT_DOUBLE_EQ(cm.Tmc(t1, AccessMethod::kAco), 30.0);
  // acs with unbound-var subject costs the entry fan-out.
  EXPECT_GT(cm.Tmc(t1, AccessMethod::kAcs), 0.0);
  EXPECT_LT(cm.Tmc(t1, AccessMethod::kAcs), 30.0);
}

TEST(CostModelTest, UnknownConstantNearZero) {
  Fixture s;
  auto q = sparql::ParseQuery(
      "SELECT * WHERE { ?x <industry> \"Quantum\" }");
  ASSERT_TRUE(q.ok());
  std::vector<const sparql::TriplePattern*> ts;
  q->where->CollectTriples(&ts);
  EXPECT_LT(s.cost().Tmc(*ts[0], AccessMethod::kAco), 1.0);
}

TEST(QueryTreeIndexTest, LcaAndConnectivity) {
  Fixture s;
  QueryTreeIndex tree(*s.query.where);
  ASSERT_EQ(tree.num_triples(), 7);
  // t2 and t3 are the UNION branches.
  EXPECT_TRUE(tree.OrConnected(2, 3));
  EXPECT_FALSE(tree.OrConnected(1, 4));
  // t7 is optional with respect to t6 but not vice versa.
  EXPECT_TRUE(tree.OptionalConnected(6, 7));
  EXPECT_FALSE(tree.OptionalConnected(7, 6));
  EXPECT_TRUE(tree.OptionalConnected(1, 7));
  // LCA of t2, t3 is the OR node.
  EXPECT_EQ(tree.Lca(2, 3)->kind, PatternKind::kOr);
  EXPECT_EQ(tree.Lca(1, 4)->kind, PatternKind::kAnd);
}

TEST(DataFlowGraphTest, EdgesRespectGuards) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  // 7 triples x 3 methods + root.
  EXPECT_EQ(g.nodes().size(), 1u + 21u);

  auto node_index = [&](int t, AccessMethod m) {
    for (size_t i = 1; i < g.nodes().size(); ++i) {
      if (g.nodes()[i].triple_id == t && g.nodes()[i].method == m) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  auto has_edge = [&](int from, int to) {
    for (const auto& e : g.edges()) {
      if (e.from == from && e.to == to) return true;
    }
    return false;
  };

  // Root edge to (t4, aco): constant object, no requirements.
  EXPECT_TRUE(has_edge(0, node_index(4, AccessMethod::kAco)));
  // (t4, aco) produces ?y which (t2, aco) requires.
  EXPECT_TRUE(has_edge(node_index(4, AccessMethod::kAco),
                       node_index(2, AccessMethod::kAco)));
  // No flow between the UNION branches t2 and t3.
  EXPECT_FALSE(has_edge(node_index(2, AccessMethod::kAco),
                        node_index(3, AccessMethod::kAco)));
  EXPECT_FALSE(has_edge(node_index(3, AccessMethod::kAco),
                        node_index(2, AccessMethod::kAco)));
  // No flow out of the OPTIONAL t7 into mandatory t6.
  EXPECT_FALSE(has_edge(node_index(7, AccessMethod::kAcs),
                        node_index(6, AccessMethod::kAcs)));
  // But flow INTO the optional is fine.
  EXPECT_TRUE(has_edge(node_index(6, AccessMethod::kAcs),
                       node_index(7, AccessMethod::kAcs)));
  // Scan nodes always have root edges.
  EXPECT_TRUE(has_edge(0, node_index(1, AccessMethod::kScan)));
}

TEST(FlowTreeTest, GreedyCoversAllTriplesOnce) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  FlowTree flow = GreedyFlowTree(g);
  ASSERT_EQ(flow.choices().size(), 7u);
  std::set<int> seen;
  for (const auto& c : flow.choices()) {
    EXPECT_TRUE(seen.insert(c.triple_id).second);
  }
  // The cheapest start is the selective (t4, aco): cost 2.
  EXPECT_EQ(flow.choices()[0].triple_id, 4);
  EXPECT_EQ(flow.choices()[0].method, AccessMethod::kAco);
  EXPECT_EQ(flow.choices()[0].parent_triple, 0);
  // t1 must NOT be evaluated by the expensive Palo Alto aco; the flow binds
  // ?x first (via t2/t3) and then uses acs.
  EXPECT_EQ(flow.ChoiceFor(1).method, AccessMethod::kAcs);
}

TEST(FlowTreeTest, LeafDetection) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  FlowTree flow = GreedyFlowTree(g);
  // t4 feeds others; t7 (optional tail) feeds nothing.
  EXPECT_FALSE(flow.IsLeaf(4));
  EXPECT_TRUE(flow.IsLeaf(7));
}

TEST(FlowTreeTest, ExhaustiveNoWorseThanGreedy) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  FlowTree greedy = GreedyFlowTree(g);
  auto best = ExhaustiveFlowTree(g, 7);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_LE(best->TotalCost(), greedy.TotalCost() + 1e-9);
  EXPECT_EQ(best->choices().size(), 7u);
}

TEST(FlowTreeTest, ExhaustiveRejectsBigQueries) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  EXPECT_TRUE(ExhaustiveFlowTree(g, 3).status().IsInvalidArgument());
}

TEST(ExecTreeTest, StructureRespectsPatternSemantics) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  FlowTree flow = GreedyFlowTree(g);
  auto tree = BuildExecTree(s.query, flow);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const ExecNode& root = **tree;
  ASSERT_EQ(root.kind, ExecKind::kAnd);
  // Contains exactly one OR node (the union) and one OPTIONAL node, and the
  // OPTIONAL is the last child (late fusing defers it).
  int ors = 0, opts = 0;
  for (const auto& c : root.children) {
    if (c->kind == ExecKind::kOr) ++ors;
    if (c->kind == ExecKind::kOptional) ++opts;
  }
  EXPECT_EQ(ors, 1);
  EXPECT_EQ(opts, 1);
  EXPECT_EQ(root.children.back()->kind, ExecKind::kOptional);
  // All 7 triples appear exactly once.
  std::string dump = root.ToString();
  for (int t = 1; t <= 7; ++t) {
    std::string label = std::string("t").append(std::to_string(t));
    EXPECT_NE(dump.find(label), std::string::npos) << dump;
  }
}

TEST(ExecTreeTest, FlowOrderDrivesFusion) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  FlowTree flow = GreedyFlowTree(g);
  auto tree = BuildExecTree(s.query, flow);
  ASSERT_TRUE(tree.ok());
  // First child of the root AND must involve t4 (the selective entry point
  // chosen by the flow), not t1 (parse order).
  const ExecNode& first = *(*tree)->children.front();
  ASSERT_EQ(first.kind, ExecKind::kTriple);
  EXPECT_EQ(first.triple->id, 4);

  // Ablation: without late fusing, parse order wins.
  auto naive = BuildExecTree(s.query, flow, /*late_fusing=*/false);
  ASSERT_TRUE(naive.ok());
  const ExecNode& nfirst = *(*naive)->children.front();
  ASSERT_EQ(nfirst.kind, ExecKind::kTriple);
  EXPECT_EQ(nfirst.triple->id, 1);
}

TEST(MergeTest, Definitions39Through311) {
  Fixture s;
  QueryTreeIndex tree(*s.query.where);
  // t2, t3 are OR-mergeable but not AND-mergeable.
  EXPECT_TRUE(OrMergeable(tree, 2, 3));
  EXPECT_FALSE(AndMergeable(tree, 2, 3));
  // t4, t6 are AND-mergeable (both plain conjuncts).
  EXPECT_TRUE(AndMergeable(tree, 4, 6));
  EXPECT_FALSE(OrMergeable(tree, 4, 6));
  // t2, t5 are neither (one is under the OR).
  EXPECT_FALSE(AndMergeable(tree, 2, 5));
  EXPECT_FALSE(OrMergeable(tree, 2, 5));
  // t6 (main) with t7 (optional) are OPT-mergeable.
  EXPECT_TRUE(OptMergeable(tree, 6, 7));
  // t7 with t7's own guard does not OPT-merge against an OR branch.
  EXPECT_FALSE(OptMergeable(tree, 2, 7));
}

SpillCheck NoSpills() {
  return [](const sparql::TriplePattern&, AccessMethod) { return false; };
}

TEST(MergeTest, PaperFigure11Merges) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  FlowTree flow = GreedyFlowTree(g);
  auto tree = BuildExecTree(s.query, flow);
  ASSERT_TRUE(tree.ok());
  QueryTreeIndex idx(*s.query.where);
  ExecNodePtr merged = MergeExecTree(std::move(*tree), idx, NoSpills());
  std::string dump = merged->ToString();
  // The OR of t2/t3 becomes a disjunctive star; t6/t7 an OPT-merged star
  // (t7 flagged optional). t4 and t5 stay separate (t4 is aco by constant,
  // t5 aco on ?y — different entity constants), as in paper Figure 11.
  EXPECT_NE(dump.find("STAR[OR, aco](t2, t3)"), std::string::npos) << dump;
  EXPECT_NE(dump.find("STAR[AND, acs](t6, t7?)"), std::string::npos) << dump;
}

TEST(MergeTest, SpilledPredicateBlocksMerge) {
  Fixture s;
  CostModel cm = s.cost();
  DataFlowGraph g = DataFlowGraph::Build(s.query, cm);
  FlowTree flow = GreedyFlowTree(g);
  auto tree = BuildExecTree(s.query, flow);
  ASSERT_TRUE(tree.ok());
  QueryTreeIndex idx(*s.query.where);
  // Mark the employees predicate (t7) as spilled: OPT merge must not fire.
  SpillCheck spill = [](const sparql::TriplePattern& t, AccessMethod) {
    return !t.predicate.is_var && t.predicate.term.lexical() == "employees";
  };
  ExecNodePtr merged = MergeExecTree(std::move(*tree), idx, spill);
  std::string dump = merged->ToString();
  EXPECT_EQ(dump.find("t7?"), std::string::npos) << dump;
  EXPECT_NE(dump.find("OPTIONAL"), std::string::npos) << dump;
}

TEST(MergeTest, SameSubjectConjunctsMergeToStar) {
  rdf::Graph graph;
  graph.Add({Term::Iri("s"), Term::Iri("p1"), Term::Iri("o1")});
  Statistics stats = Statistics::FromGraph(graph, 0);
  CostModel cm(&stats, &graph.dictionary());
  auto q = sparql::ParseQuery(
      "SELECT ?s WHERE { ?s <SV1> ?o1 . ?s <SV2> ?o2 . ?s <SV3> ?o3 }");
  ASSERT_TRUE(q.ok());
  DataFlowGraph g = DataFlowGraph::Build(*q, cm);
  FlowTree flow = GreedyFlowTree(g);
  auto tree = BuildExecTree(*q, flow);
  ASSERT_TRUE(tree.ok());
  QueryTreeIndex idx(*q->where);
  ExecNodePtr merged = MergeExecTree(std::move(*tree), idx, NoSpills());
  // All three triples share ?s: if the flow picked a common method they
  // merge into one star node covering t1..t3.
  std::string dump = merged->ToString();
  EXPECT_NE(dump.find("STAR[AND"), std::string::npos) << dump;
  EXPECT_NE(dump.find("t1"), std::string::npos);
  EXPECT_NE(dump.find("t2"), std::string::npos);
  EXPECT_NE(dump.find("t3"), std::string::npos);
}

/// An OR of one triple node per UNION branch of \p q (branch i holds
/// triple i + 1), with the given access methods.
ExecNodePtr OrOfTriples(const QueryTreeIndex& idx,
                        const std::vector<AccessMethod>& methods) {
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kOr;
  for (size_t i = 0; i < methods.size(); ++i) {
    root->children.push_back(
        MakeTripleNode(idx.Triple(static_cast<int>(i) + 1), methods[i]));
  }
  return root;
}

TEST(MergeTest, UnionFoldGroupsSameShapeBranches) {
  auto q = sparql::ParseQuery(
      "SELECT ?x WHERE { { ?x <p> <a> } UNION { ?x <p> <b> } UNION "
      "{ ?x <p> <a> } UNION { ?x <p> <c> } }");
  ASSERT_TRUE(q.ok());
  QueryTreeIndex idx(*q->where);
  const AccessMethod aco = AccessMethod::kAco;
  ExecNodePtr merged =
      MergeExecTree(OrOfTriples(idx, {aco, aco, aco, aco}), idx, NoSpills());
  // The repeated <a> branch stays apart, so <a> keeps its two copies.
  EXPECT_EQ(merged->ToString(),
            "OR\n  FOLD[3 branches](t1.o)\n    (t1, aco)\n  (t3, aco)\n");
  ASSERT_NE(merged->children[0]->fold, nullptr);
  const UnionFold& fold = *merged->children[0]->fold;
  ASSERT_EQ(fold.tuples.size(), 3u);
  EXPECT_EQ(fold.tuples[1][0]->lexical(), "b");
  EXPECT_EQ(fold.tuples[2][0]->lexical(), "c");
  EXPECT_EQ(fold.absorbed,
            (std::vector<const sparql::TriplePattern*>{idx.Triple(2),
                                                       idx.Triple(4)}));
  EXPECT_TRUE(VerifyExecTree(*merged, *q).ok());
}

TEST(MergeTest, UnionFoldNeedsEqualAccessMethods) {
  auto q = sparql::ParseQuery(
      "SELECT ?x WHERE { { ?x <p> <a> } UNION { ?x <p> <b> } }");
  ASSERT_TRUE(q.ok());
  QueryTreeIndex idx(*q->where);
  ExecNodePtr merged = MergeExecTree(
      OrOfTriples(idx, {AccessMethod::kAco, AccessMethod::kAcs}), idx,
      NoSpills());
  EXPECT_EQ(merged->ToString(), "OR\n  (t1, aco)\n  (t2, acs)\n");
}

TEST(MergeTest, UnionFoldLeavesFilteredBranchesAlone) {
  auto q = sparql::ParseQuery(
      "SELECT ?x WHERE { { ?x <p> <a> } UNION { ?x <p> <b> } UNION "
      "{ ?x <p> <c> } FILTER (?x != <z>) }");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->where->filters.size(), 1u);
  QueryTreeIndex idx(*q->where);
  const AccessMethod aco = AccessMethod::kAco;
  ExecNodePtr root = OrOfTriples(idx, {aco, aco, aco});
  root->children[0]->filters.push_back(q->where->filters[0].get());
  ExecNodePtr merged = MergeExecTree(std::move(root), idx, NoSpills());
  const std::string dump = merged->ToString();
  EXPECT_NE(dump.find("  (t1, aco)\n    FILTER"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("FOLD[2 branches](t2.o)"), std::string::npos) << dump;
}

}  // namespace
}  // namespace rdfrel::opt
