/// Negative-path tests for the plan/IR verifier (DESIGN.md §8): hand-built
/// malformed flow choice lists and exec trees must be rejected with
/// kInternalPlanError and a dotted path to the offending node, while
/// everything the real builders produce verifies cleanly.

#include "opt/plan_verifier.h"

#include <gtest/gtest.h>

#include "opt/cost_model.h"
#include "opt/data_flow_graph.h"
#include "opt/exec_tree.h"
#include "opt/flow_tree.h"
#include "opt/statistics.h"
#include "schema/hash_mapping.h"
#include "sparql/parser.h"

namespace rdfrel::opt {
namespace {

using rdf::Term;

/// A small graph with every predicate the test queries mention, so the
/// cost model has real statistics to chew on.
rdf::Graph TestGraph() {
  rdf::Graph g;
  for (int i = 0; i < 4; ++i) {
    std::string s = std::string("s").append(std::to_string(i));
    g.Add({Term::Iri(s), Term::Iri("p"),
           Term::Iri(std::string("o").append(std::to_string(i)))});
    g.Add({Term::Iri(s), Term::Iri("q"), Term::Literal("v")});
    g.Add({Term::Iri(std::string("o").append(std::to_string(i))),
           Term::Iri("r"), Term::Literal("w")});
  }
  return g;
}

sparql::Query Parse(const std::string& body) {
  auto q = sparql::ParseQuery("PREFIX : <> SELECT * WHERE { " + body + " }");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(*q);
}

/// Parsed query plus its data flow graph, the raw material for both the
/// positive paths and the hand-mutated negative ones.
struct Ctx {
  rdf::Graph graph = TestGraph();
  Statistics stats;
  sparql::Query query;
  DataFlowGraph dfg;

  explicit Ctx(const std::string& body)
      : stats(Statistics::FromGraph(graph, 0)),
        query(Parse(body)),
        dfg(DataFlowGraph::Build(query,
                                 CostModel(&stats, &graph.dictionary()))) {}
};

FlowChoice Choice(int triple, AccessMethod m, int parent, int rank) {
  FlowChoice c;
  c.triple_id = triple;
  c.method = m;
  c.parent_triple = parent;
  c.rank = rank;
  return c;
}

void ExpectPlanError(const Status& st, const std::string& needle) {
  ASSERT_TRUE(st.IsInternalPlanError()) << st.ToString();
  EXPECT_NE(st.message().find(needle), std::string::npos) << st.ToString();
}

// ------------------------------------------------------------- flow: valid

TEST(PlanVerifierTest, GreedyFlowVerifiesStrict) {
  Ctx c("?x :p ?y . ?y :r ?w . OPTIONAL { ?x :q ?v }");
  FlowTree flow = GreedyFlowTree(c.dfg);
  EXPECT_TRUE(VerifyFlowTree(c.dfg, flow).ok());
}

TEST(PlanVerifierTest, ExhaustiveFlowVerifiesStrict) {
  Ctx c("?x :p ?y . ?y :r ?w");
  auto flow = ExhaustiveFlowTree(c.dfg, 10);
  ASSERT_TRUE(flow.ok());
  EXPECT_TRUE(VerifyFlowTree(c.dfg, *flow).ok());
}

TEST(PlanVerifierTest, ParseOrderFlowVerifiesRelaxed) {
  Ctx c("?x :p ?y . ?y :r ?w");
  FlowTree flow = ParseOrderFlowTree(c.dfg);
  EXPECT_TRUE(
      VerifyFlowTree(c.dfg, flow, FlowVerifyLevel::kRelaxed).ok());
}

// ---------------------------------------------------------- flow: negative

TEST(PlanVerifierTest, RejectsDuplicateTripleCoverage) {
  Ctx c("?x :p ?y . ?y :r ?w");
  std::vector<FlowChoice> bad = {Choice(1, AccessMethod::kScan, 0, 0),
                                 Choice(1, AccessMethod::kScan, 0, 1)};
  Status st = VerifyFlowChoices(c.dfg, bad);
  ExpectPlanError(st, "triple covered more than once");
  ExpectPlanError(st, "flow.choice[1] (t1)");
}

TEST(PlanVerifierTest, RejectsTripleIdOutOfRange) {
  Ctx c("?x :p ?y . ?y :r ?w");
  std::vector<FlowChoice> bad = {Choice(9, AccessMethod::kScan, 0, 0),
                                 Choice(2, AccessMethod::kScan, 0, 1)};
  ExpectPlanError(VerifyFlowChoices(c.dfg, bad),
                  "triple id out of range [1, 2]");
}

TEST(PlanVerifierTest, RejectsRankPositionMismatch) {
  Ctx c("?x :p ?y . ?y :r ?w");
  std::vector<FlowChoice> bad = {Choice(1, AccessMethod::kScan, 0, 0),
                                 Choice(2, AccessMethod::kScan, 0, 5)};
  ExpectPlanError(VerifyFlowChoices(c.dfg, bad),
                  "rank 5 does not match position");
}

TEST(PlanVerifierTest, RejectsUnknownFeedingTriple) {
  Ctx c("?x :p ?y . ?y :r ?w");
  std::vector<FlowChoice> bad = {Choice(1, AccessMethod::kScan, 0, 0),
                                 Choice(2, AccessMethod::kScan, 7, 1)};
  ExpectPlanError(VerifyFlowChoices(c.dfg, bad), "fed by unknown triple t7");
}

TEST(PlanVerifierTest, RejectsFeedingFromLaterChoice) {
  Ctx c("?x :p ?y . ?y :r ?w");
  std::vector<FlowChoice> bad = {Choice(1, AccessMethod::kScan, 2, 0),
                                 Choice(2, AccessMethod::kScan, 0, 1)};
  Status st = VerifyFlowChoices(c.dfg, bad);
  ExpectPlanError(st, "fed by t2 which is not chosen earlier");
  ExpectPlanError(st, "flow.choice[0] (t1)");
}

TEST(PlanVerifierTest, RejectsRequiredVarNotProducedByParent) {
  Ctx c("?x :p ?y . ?y :r ?w");
  // t2 via acs requires ?y bound, but it is fed straight from the root.
  std::vector<FlowChoice> bad = {Choice(1, AccessMethod::kScan, 0, 0),
                                 Choice(2, AccessMethod::kAcs, 0, 1)};
  ExpectPlanError(VerifyFlowChoices(c.dfg, bad),
                  "required variable ?y not produced by feeding triple t0");
}

TEST(PlanVerifierTest, RejectsUnboundRequiredVarRelaxed) {
  Ctx c("?x :p ?y . ?y :r ?w");
  // Even the relaxed level demands ?x be bound by *some* earlier choice.
  std::vector<FlowChoice> bad = {Choice(1, AccessMethod::kAcs, 0, 0),
                                 Choice(2, AccessMethod::kScan, 0, 1)};
  ExpectPlanError(
      VerifyFlowChoices(c.dfg, bad, FlowVerifyLevel::kRelaxed),
      "required variable ?x not bound by any earlier choice");
}

TEST(PlanVerifierTest, RejectsFeedAcrossUnionBoundary) {
  Ctx c("{ ?x :p ?y } UNION { ?x :q ?z }");
  // t2 fed by t1 from the other UNION branch (Definition 3.6 violation).
  std::vector<FlowChoice> bad = {Choice(1, AccessMethod::kScan, 0, 0),
                                 Choice(2, AccessMethod::kAcs, 1, 1)};
  ExpectPlanError(VerifyFlowChoices(c.dfg, bad),
                  "fed across a UNION boundary by t1");
}

TEST(PlanVerifierTest, RejectsBindingsEscapingAnOptional) {
  Ctx c("?x :p ?y . OPTIONAL { ?x :q ?z } ?x :r ?w");
  // Mandatory t3 fed by optional t2 (Definition 3.7 violation).
  std::vector<FlowChoice> bad = {Choice(1, AccessMethod::kScan, 0, 0),
                                 Choice(2, AccessMethod::kAcs, 1, 1),
                                 Choice(3, AccessMethod::kAcs, 2, 2)};
  Status st = VerifyFlowChoices(c.dfg, bad);
  ExpectPlanError(st, "bindings escape an OPTIONAL via t2");
  ExpectPlanError(st, "flow.choice[2] (t3)");
}

// ------------------------------------------------------------- exec: valid

TEST(PlanVerifierTest, BuiltExecTreeVerifies) {
  Ctx c("?x :p ?y . ?y :r ?w . OPTIONAL { ?x :q ?v }");
  FlowTree flow = GreedyFlowTree(c.dfg);
  auto plan = BuildExecTree(c.query, flow, /*late_fusing=*/true);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(VerifyExecTree(**plan, c.query).ok());
}

// ---------------------------------------------------------- exec: negative

TEST(PlanVerifierTest, RejectsOptionalWithTwoChildren) {
  Ctx c("?x :p ?y . ?x :q ?z");
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kOptional;
  root->children.push_back(
      MakeTripleNode(c.dfg.tree().Triple(1), AccessMethod::kScan));
  root->children.push_back(
      MakeTripleNode(c.dfg.tree().Triple(2), AccessMethod::kScan));
  Status st = VerifyExecTree(*root, c.query);
  ExpectPlanError(st, "OPTIONAL must have exactly one child");
  ExpectPlanError(st, "plan.opt");
}

TEST(PlanVerifierTest, RejectsSingleChildAndWithoutFilters) {
  Ctx c("?x :p ?y");
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kAnd;
  root->children.push_back(
      MakeTripleNode(c.dfg.tree().Triple(1), AccessMethod::kScan));
  Status st = VerifyExecTree(*root, c.query);
  ExpectPlanError(st,
                  "AND must have two children or one child plus filters");
  ExpectPlanError(st, "plan.and");
}

TEST(PlanVerifierTest, RejectsTripleAnsweredTwice) {
  Ctx c("?x :p ?y . ?x :q ?z");
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kAnd;
  root->children.push_back(
      MakeTripleNode(c.dfg.tree().Triple(1), AccessMethod::kScan));
  root->children.push_back(
      MakeTripleNode(c.dfg.tree().Triple(1), AccessMethod::kScan));
  ExpectPlanError(VerifyExecTree(*root, c.query),
                  "triple t1 answered 2 times");
}

TEST(PlanVerifierTest, RejectsUnansweredTriple) {
  Ctx c("?x :p ?y . ?x :q ?z");
  auto root = MakeTripleNode(c.dfg.tree().Triple(1), AccessMethod::kScan);
  ExpectPlanError(VerifyExecTree(*root, c.query),
                  "triple t2 is not answered");
}

TEST(PlanVerifierTest, RejectsStarWithOneMember) {
  Ctx c("?x :p ?y . ?x :q ?z");
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kStar;
  root->method = AccessMethod::kScan;
  root->star_triples = {c.dfg.tree().Triple(1)};
  root->star_optional = {false};
  Status st = VerifyExecTree(*root, c.query);
  ExpectPlanError(st, "star with fewer than two members");
  ExpectPlanError(st, "plan.star");
}

TEST(PlanVerifierTest, RejectsOptionalFirstStarMember) {
  Ctx c("?x :p ?y . ?x :q ?z");
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kStar;
  root->method = AccessMethod::kScan;
  root->star_triples = {c.dfg.tree().Triple(1), c.dfg.tree().Triple(2)};
  root->star_optional = {true, false};
  ExpectPlanError(VerifyExecTree(*root, c.query),
                  "first star member must be mandatory");
}

TEST(PlanVerifierTest, RejectsStarMembersWithDifferentEntries) {
  Ctx c("?x :p ?y . ?z :q ?w");
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kStar;
  root->method = AccessMethod::kScan;  // entry = subject: ?x vs ?z
  root->star_triples = {c.dfg.tree().Triple(1), c.dfg.tree().Triple(2)};
  root->star_optional = {false, false};
  Status st = VerifyExecTree(*root, c.query);
  ExpectPlanError(st, "entry differs from the star's shared entry");
  ExpectPlanError(st, "plan.star.member[1] (t2)");
}

TEST(PlanVerifierTest, RejectsOptionalMemberInDisjunctiveStar) {
  Ctx c("?x :p ?y . ?x :q ?z");
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kStar;
  root->method = AccessMethod::kScan;
  root->star_semantics = StarSemantics::kDisjunctive;
  root->star_triples = {c.dfg.tree().Triple(1), c.dfg.tree().Triple(2)};
  root->star_optional = {false, true};
  ExpectPlanError(VerifyExecTree(*root, c.query),
                  "OPTIONAL member in a disjunctive star");
}

/// `{ ?x :p :o1 } UNION { ?x :p :o2 }` folded into t1 with t2 absorbed.
ExecNodePtr FoldedPair(const Ctx& c) {
  const sparql::TriplePattern* t1 = c.dfg.tree().Triple(1);
  const sparql::TriplePattern* t2 = c.dfg.tree().Triple(2);
  auto root = MakeTripleNode(t1, AccessMethod::kAco);
  root->fold = std::make_unique<UnionFold>();
  root->fold->positions = {{t1, /*object=*/true}};
  root->fold->tuples = {{&t1->object.term}, {&t2->object.term}};
  root->fold->absorbed = {t2};
  return root;
}

TEST(PlanVerifierTest, FoldAnswersItsAbsorbedTriples) {
  Ctx c("{ ?x :p :o1 } UNION { ?x :p :o2 }");
  EXPECT_TRUE(VerifyExecTree(*FoldedPair(c), c.query).ok());
}

TEST(PlanVerifierTest, RejectsFoldWithoutItsAbsorbedTriples) {
  Ctx c("{ ?x :p :o1 } UNION { ?x :p :o2 }");
  auto root = FoldedPair(c);
  root->fold->absorbed.clear();
  Status st = VerifyExecTree(*root, c.query);
  ExpectPlanError(st, "0 absorbed triples for 1 branches of 1");
  ExpectPlanError(st, "plan.fold");
}

TEST(PlanVerifierTest, RejectsFoldWithRepeatedTuple) {
  Ctx c("{ ?x :p :o1 } UNION { ?x :p :o2 }");
  auto root = FoldedPair(c);
  root->fold->tuples[1] = root->fold->tuples[0];
  ExpectPlanError(VerifyExecTree(*root, c.query), "repeated tuple");
}

TEST(PlanVerifierTest, RejectsFoldPositionOnAVariable) {
  Ctx c("{ ?x :p :o1 } UNION { ?x :p :o2 }");
  auto root = FoldedPair(c);
  root->fold->positions[0].object = false;  // ?x
  ExpectPlanError(VerifyExecTree(*root, c.query),
                  "position is not a constant of the folded subtree");
}

/// `{ :s1 :p ?x . :s1 :q ?y } UNION { :s2 :p ?x . :s2 :q ?y }` as one acs
/// star on t1, t2 folded over its shared entry, with t3, t4 absorbed.
ExecNodePtr FoldedStar(const Ctx& c) {
  const sparql::TriplePattern* t1 = c.dfg.tree().Triple(1);
  const sparql::TriplePattern* t3 = c.dfg.tree().Triple(3);
  auto root = std::make_unique<ExecNode>();
  root->kind = ExecKind::kStar;
  root->method = AccessMethod::kAcs;
  root->star_semantics = StarSemantics::kConjunctive;
  root->star_triples = {t1, c.dfg.tree().Triple(2)};
  root->star_optional = {false, false};
  root->fold = std::make_unique<UnionFold>();
  root->fold->positions = {{t1, /*object=*/false}};
  root->fold->tuples = {{&t1->subject.term}, {&t3->subject.term}};
  root->fold->absorbed = {t3, c.dfg.tree().Triple(4)};
  return root;
}

TEST(PlanVerifierTest, FoldedStarReadsItsEntryFromTheFirstMember) {
  Ctx c("{ :s1 :p ?x . :s1 :q ?y } UNION { :s2 :p ?x . :s2 :q ?y }");
  EXPECT_TRUE(VerifyExecTree(*FoldedStar(c), c.query).ok());
  // The second member's entry is the same column, which the star never
  // reads on its own: a position there would never be bound.
  auto root = FoldedStar(c);
  const sparql::TriplePattern* t2 = c.dfg.tree().Triple(2);
  const sparql::TriplePattern* t4 = c.dfg.tree().Triple(4);
  root->fold->positions.push_back({t2, /*object=*/false});
  root->fold->tuples[0].push_back(&t2->subject.term);
  root->fold->tuples[1].push_back(&t4->subject.term);
  ExpectPlanError(VerifyExecTree(*root, c.query),
                  "position is the entry of a star member after the first");
}

TEST(PlanVerifierTest, RejectsSchemaColumnCountMismatch) {
  Ctx c("?x :p ?y");
  auto root = MakeTripleNode(c.dfg.tree().Triple(1), AccessMethod::kScan);
  // The mapping was built for k=4 but the schema claims k=8 columns.
  auto mapping = std::make_shared<schema::HashMapping>(4, 2, 1);
  PlanVerifyContext ctx;
  ctx.direct = mapping.get();
  ctx.k_direct = 8;
  Status st = VerifyExecTree(*root, c.query, ctx);
  ExpectPlanError(st, "DPH mapping has 4 columns, schema has 8");
  ExpectPlanError(st, "plan.t1");
}

}  // namespace
}  // namespace rdfrel::opt
