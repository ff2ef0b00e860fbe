#ifndef RDFREL_OPT_DATA_FLOW_GRAPH_H_
#define RDFREL_OPT_DATA_FLOW_GRAPH_H_

/// \file data_flow_graph.h
/// The sideways-information-passing data flow graph of paper §3.1.1
/// (Definition 3.8): nodes are (triple pattern, access method) pairs; a
/// directed edge (t,m) -> (t',m') means t's lookup binds every variable
/// t'-with-m' requires, subject to the OR / OPTIONAL guards of Definitions
/// 3.6-3.7. Edges are weighted with the target's TMC.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "opt/cost_model.h"
#include "sparql/ast.h"
#include "util/status.h"

namespace rdfrel::opt {

/// Index over a Query's pattern tree providing the ancestor helpers of
/// Definitions 3.4-3.7: LCA, OR-connectedness, OPTIONAL-connectedness.
///
/// Pattern nodes are numbered densely in DFS preorder (the root is node 0),
/// so a node's subtree is the contiguous range [node, SubtreeEnd(node)).
/// Every guard is an integer walk: Lca is O(depth), OptionalConnected O(1).
class QueryTreeIndex {
 public:
  explicit QueryTreeIndex(const sparql::Pattern& root);

  /// Least common ancestor pattern node of two triples (by triple id).
  const sparql::Pattern* Lca(int t1, int t2) const {
    return node_[static_cast<size_t>(LcaNode(t1, t2))];
  }
  /// Lca as a node number.
  int LcaNode(int t1, int t2) const;

  /// ∪(t, t'): the triples' LCA is an OR pattern (Definition 3.6).
  bool OrConnected(int t1, int t2) const;

  /// ∩(t, t'): t' is guarded by an OPTIONAL with respect to t
  /// (Definition 3.7) — some node on t''s path up to (not including) the
  /// LCA is an OPTIONAL pattern. Equivalently: t''s nearest OPTIONAL
  /// ancestor exists and does not enclose t.
  bool OptionalConnected(int t, int t_prime) const;

  /// The triple pattern with the given id.
  const sparql::TriplePattern* Triple(int id) const {
    return triples_[static_cast<size_t>(id - 1)];
  }

  /// The leaf node holding triple \p id.
  int LeafNode(int id) const {
    return leaf_of_triple_[static_cast<size_t>(id)];
  }
  const sparql::Pattern* Node(int node) const {
    return node_[static_cast<size_t>(node)];
  }
  sparql::PatternKind Kind(int node) const {
    return kind_[static_cast<size_t>(node)];
  }
  /// Parent node number (-1 for the root).
  int Parent(int node) const { return parent_[static_cast<size_t>(node)]; }
  /// One past the last node of \p node's subtree.
  int SubtreeEnd(int node) const { return end_[static_cast<size_t>(node)]; }
  /// Nearest proper OPTIONAL ancestor of \p node (-1 when none): the
  /// OPTIONAL scope the node's bindings must not escape.
  int OptionalScope(int node) const {
    return opt_scope_[static_cast<size_t>(node)];
  }
  /// Whether \p a is \p node or one of its ancestors.
  bool Encloses(int a, int node) const {
    return a <= node && node < SubtreeEnd(a);
  }

  int num_triples() const { return static_cast<int>(triples_.size()); }

 private:
  void Walk(const sparql::Pattern* node, int parent, int opt_scope,
            int depth);

  // Per node, indexed by preorder number.
  std::vector<const sparql::Pattern*> node_;
  std::vector<sparql::PatternKind> kind_;
  std::vector<int> parent_;
  std::vector<int> depth_;
  std::vector<int> end_;
  std::vector<int> opt_scope_;
  std::vector<int> leaf_of_triple_;                    // by id; [0] unused
  std::vector<const sparql::TriplePattern*> triples_;  // by id-1
};

/// One node of the data flow graph.
struct FlowNode {
  int triple_id = 0;  ///< 0 == the artificial root
  AccessMethod method = AccessMethod::kScan;
  double cost = 0;    ///< TMC(t, m, S)

  bool is_root() const { return triple_id == 0; }
  std::string ToString() const;
};

/// A weighted directed edge, indexing into DataFlowGraph::nodes().
struct FlowEdge {
  int from = 0;
  int to = 0;
  double weight = 0;
};

/// The data flow graph (Definition 3.8) with the artificial root node at
/// index 0.
///
/// Nodes are ordered by triple id, then acs, aco, sc. Edges are ordered by
/// target node, then source node; GreedyFlowTree breaks weight ties by edge
/// index, so this order is part of the contract.
class DataFlowGraph {
 public:
  /// Builds the graph for \p query using \p cost for TMC weights.
  static DataFlowGraph Build(const sparql::Query& query,
                             const CostModel& cost);

  const std::vector<FlowNode>& nodes() const { return nodes_; }
  const std::vector<FlowEdge>& edges() const { return edges_; }
  const QueryTreeIndex& tree() const { return *tree_; }

  /// Outgoing edge indexes of a node.
  const std::vector<int>& OutEdges(int node) const {
    return out_[static_cast<size_t>(node)];
  }

  std::string ToString() const;

 private:
  std::vector<FlowNode> nodes_;
  std::vector<FlowEdge> edges_;
  std::vector<std::vector<int>> out_;
  std::shared_ptr<QueryTreeIndex> tree_;
};

}  // namespace rdfrel::opt

#endif  // RDFREL_OPT_DATA_FLOW_GRAPH_H_
