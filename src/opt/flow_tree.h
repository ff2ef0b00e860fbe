#ifndef RDFREL_OPT_FLOW_TREE_H_
#define RDFREL_OPT_FLOW_TREE_H_

/// \file flow_tree.h
/// The optimal flow tree (paper §3.1.1, Figure 9): a spanning tree of the
/// data flow graph covering every triple exactly once. Finding the true
/// minimum is NP-hard (Theorem 3.1, reduction from TSP), so the paper — and
/// this implementation — uses a greedy cheapest-edge heuristic. An
/// exhaustive-search variant is provided for small queries (ablation).

#include <vector>

#include "opt/data_flow_graph.h"
#include "util/status.h"

namespace rdfrel::opt {

/// The chosen access plan for one triple.
struct FlowChoice {
  int triple_id = 0;
  AccessMethod method = AccessMethod::kScan;
  int parent_triple = 0;  ///< 0 == fed from the root
  double cost = 0;        ///< TMC of this node
  int rank = 0;           ///< position in greedy addition order (0-based)
};

/// The result: one choice per triple, in addition order.
class FlowTree {
 public:
  const std::vector<FlowChoice>& choices() const { return choices_; }

  /// Choice for a triple id.
  const FlowChoice& ChoiceFor(int triple_id) const;
  /// True when no other triple consumes this triple's bindings (the triple's
  /// node is a leaf of the flow tree) — the late-fusing trigger of §3.1.2.
  bool IsLeaf(int triple_id) const;

  /// Sum of chosen edge weights.
  double TotalCost() const;

  std::string ToString() const;

 private:
  friend FlowTree GreedyFlowTree(const DataFlowGraph& g);
  friend Result<FlowTree> ExhaustiveFlowTree(const DataFlowGraph& g,
                                             int max_triples);
  friend FlowTree ParseOrderFlowTree(const DataFlowGraph& g);
  std::vector<FlowChoice> choices_;        // in addition order
  std::vector<int> choice_of_triple_;      // triple id -> index in choices_
  std::vector<bool> has_consumer_;         // triple id -> feeds another
};

/// Figure 9's greedy algorithm: repeatedly add the cheapest edge from the
/// tree to a node whose triple is not yet covered. Weight ties go to the
/// lower edge index. O(E log E) over a heap of the edges leaving the tree.
FlowTree GreedyFlowTree(const DataFlowGraph& g);

/// Exhaustive search over all spanning choices (ablation; exponential).
/// Errors when the query has more than \p max_triples triples.
Result<FlowTree> ExhaustiveFlowTree(const DataFlowGraph& g,
                                    int max_triples = 10);

/// Bottom-up baseline (ablation, and the "sub-optimal flow" of paper §3.3 /
/// Figure 14): triples are taken in parse order; each picks its locally
/// cheapest admissible method given only the variables bound by earlier
/// triples — no global data-flow reasoning.
FlowTree ParseOrderFlowTree(const DataFlowGraph& g);

}  // namespace rdfrel::opt

#endif  // RDFREL_OPT_FLOW_TREE_H_
