#include "opt/flow_tree.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>

#include "util/logging.h"

namespace rdfrel::opt {

namespace {

/// Triple ids and node indexes are ints throughout the optimizer; vectors
/// index by size_t. Centralizes the (always non-negative) cast.
inline size_t U(int i) { return static_cast<size_t>(i); }

}  // namespace

const FlowChoice& FlowTree::ChoiceFor(int triple_id) const {
  return choices_[U(choice_of_triple_.at(U(triple_id)))];
}

bool FlowTree::IsLeaf(int triple_id) const {
  return !has_consumer_.at(U(triple_id));
}

double FlowTree::TotalCost() const {
  double total = 0;
  for (const auto& c : choices_) total += c.cost;
  return total;
}

std::string FlowTree::ToString() const {
  std::string out;
  for (const auto& c : choices_) {
    out += "t";
    out += std::to_string(c.triple_id);
    out += " via ";
    out += AccessMethodToString(c.method);
    out += " cost ";
    out += std::to_string(c.cost);
    out += " fed-by t";
    out += std::to_string(c.parent_triple);
    out += "\n";
  }
  return out;
}

namespace {

/// The Definition 3.8 guards, extended transitively: bindings must not
/// reach a triple through a path that crosses a UNION boundary or escapes
/// an OPTIONAL. \p path holds the triple ids on the candidate parent's
/// root path (parent included).
bool PathAdmissible(const QueryTreeIndex& tree, const std::vector<int>& path,
                    int target_triple) {
  for (int p : path) {
    if (tree.OrConnected(p, target_triple)) return false;
    // p is OPTIONAL-guarded with respect to the target: bindings would
    // leak out of the optional part into a mandatory pattern.
    if (tree.OptionalConnected(target_triple, p)) return false;
  }
  return true;
}

}  // namespace

FlowTree GreedyFlowTree(const DataFlowGraph& g) {
  const auto& nodes = g.nodes();
  const auto& edges = g.edges();
  int num_triples = g.tree().num_triples();

  // Sort edge indexes by weight (SortEdgesByCost in Figure 9); an edge's
  // rank is its position in that order.
  std::vector<int> order(edges.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return edges[U(a)].weight < edges[U(b)].weight;
  });
  std::vector<int> rank(edges.size());
  for (size_t r = 0; r < order.size(); ++r) {
    rank[U(order[r])] = static_cast<int>(r);
  }

  FlowTree tree;
  tree.choice_of_triple_.assign(U(num_triples + 1), -1);
  tree.has_consumer_.assign(U(num_triples + 1), false);
  std::vector<bool> triple_covered(U(num_triples + 1), false);
  // Triples on each in-tree node's path from the root (node included).
  std::vector<std::vector<int>> path(nodes.size());

  // Ranks of the edges leaving the tree. An edge is dropped for good when
  // its target's triple is covered or its path is inadmissible: coverage
  // only grows and path[from] is fixed once `from` joins, so the first
  // surviving pop is the cheapest edge a full rescan would pick.
  std::priority_queue<int, std::vector<int>, std::greater<int>> frontier;
  auto push_out_edges = [&](int node) {
    for (int ei : g.OutEdges(node)) frontier.push(rank[U(ei)]);
  };
  push_out_edges(0);  // root

  while (static_cast<int>(tree.choices_.size()) < num_triples) {
    // Every triple has a scan node reachable from root, so progress is
    // guaranteed; the check is a belt-and-braces invariant.
    RDFREL_CHECK(!frontier.empty()) << "data flow graph is not root-connected";
    const FlowEdge& e = edges[U(order[U(frontier.top())])];
    frontier.pop();
    const FlowNode& target = nodes[U(e.to)];
    if (triple_covered[U(target.triple_id)]) continue;
    if (!PathAdmissible(g.tree(), path[U(e.from)], target.triple_id)) {
      continue;
    }
    // Add the node.
    triple_covered[U(target.triple_id)] = true;
    path[U(e.to)] = path[U(e.from)];
    path[U(e.to)].push_back(target.triple_id);
    FlowChoice c;
    c.triple_id = target.triple_id;
    c.method = target.method;
    c.parent_triple = nodes[U(e.from)].triple_id;
    c.cost = e.weight;
    c.rank = static_cast<int>(tree.choices_.size());
    tree.choice_of_triple_[U(c.triple_id)] =
        static_cast<int>(tree.choices_.size());
    if (c.parent_triple != 0) {
      tree.has_consumer_[U(c.parent_triple)] = true;
    }
    tree.choices_.push_back(c);
    push_out_edges(e.to);
  }
  return tree;
}

namespace {

struct SearchState {
  const DataFlowGraph* g;
  int num_triples;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_nodes;  // node indexes in addition order
  std::vector<int> current;
  std::vector<bool> covered;    // triple id -> covered
  std::vector<bool> in_tree;    // node index -> in tree
  std::vector<std::vector<int>> path;  // node index -> root-path triples
  double cost = 0;

  void Recurse() {
    if (static_cast<int>(current.size()) == num_triples) {
      if (cost < best_cost) {
        best_cost = cost;
        best_nodes = current;
      }
      return;
    }
    if (cost >= best_cost) return;  // branch and bound
    const auto& nodes = g->nodes();
    for (const auto& e : g->edges()) {
      if (!in_tree[U(e.from)]) continue;  // in_tree[0] (root) always true
      const FlowNode& target = nodes[U(e.to)];
      if (in_tree[U(e.to)] || covered[U(target.triple_id)]) continue;
      if (!PathAdmissible(g->tree(), path[U(e.from)], target.triple_id)) {
        continue;
      }
      in_tree[U(e.to)] = true;
      covered[U(target.triple_id)] = true;
      path[U(e.to)] = path[U(e.from)];
      path[U(e.to)].push_back(target.triple_id);
      current.push_back(e.to);
      cost += e.weight;
      Recurse();
      cost -= e.weight;
      current.pop_back();
      covered[U(target.triple_id)] = false;
      in_tree[U(e.to)] = false;
      path[U(e.to)].clear();
    }
  }
};

}  // namespace

Result<FlowTree> ExhaustiveFlowTree(const DataFlowGraph& g,
                                    int max_triples) {
  int num_triples = g.tree().num_triples();
  if (num_triples > max_triples) {
    return Status::InvalidArgument(
        "exhaustive flow search limited to " + std::to_string(max_triples) +
        " triples; query has " + std::to_string(num_triples));
  }
  SearchState s;
  s.g = &g;
  s.num_triples = num_triples;
  s.covered.assign(U(num_triples + 1), false);
  s.in_tree.assign(g.nodes().size(), false);
  s.in_tree[0] = true;
  s.path.resize(g.nodes().size());
  s.Recurse();
  if (s.best_nodes.empty() && num_triples > 0) {
    return Status::Internal("no spanning flow found");
  }

  // Reconstruct a FlowTree from the winning node sequence.
  FlowTree tree;
  tree.choice_of_triple_.assign(U(num_triples + 1), -1);
  tree.has_consumer_.assign(U(num_triples + 1), false);
  std::vector<bool> in_tree(g.nodes().size(), false);
  in_tree[0] = true;
  for (int node_idx : s.best_nodes) {
    const FlowNode& node = g.nodes()[U(node_idx)];
    // Find the cheapest in-tree parent edge for this node (the search
    // counted target cost only, so any valid parent gives the same cost).
    int parent_triple = -1;
    double w = 0;
    for (const auto& e : g.edges()) {
      if (e.to != node_idx) continue;
      if (e.from == 0 || in_tree[U(e.from)]) {
        parent_triple = g.nodes()[U(e.from)].triple_id;
        w = e.weight;
        break;
      }
    }
    RDFREL_CHECK(parent_triple >= 0);
    FlowChoice c;
    c.triple_id = node.triple_id;
    c.method = node.method;
    c.parent_triple = parent_triple;
    c.cost = w;
    c.rank = static_cast<int>(tree.choices_.size());
    tree.choice_of_triple_[U(c.triple_id)] =
        static_cast<int>(tree.choices_.size());
    if (parent_triple != 0) tree.has_consumer_[U(parent_triple)] = true;
    tree.choices_.push_back(c);
    in_tree[U(node_idx)] = true;
  }
  return tree;
}

}  // namespace rdfrel::opt

namespace rdfrel::opt {

FlowTree ParseOrderFlowTree(const DataFlowGraph& g) {
  int num_triples = g.tree().num_triples();
  FlowTree tree;
  tree.choice_of_triple_.assign(U(num_triples + 1), -1);
  tree.has_consumer_.assign(U(num_triples + 1), false);

  std::vector<std::string> bound;  // variables bound so far
  auto is_bound = [&](const std::string& v) {
    return std::find(bound.begin(), bound.end(), v) != bound.end();
  };

  for (int t = 1; t <= num_triples; ++t) {
    const sparql::TriplePattern& tp = *g.tree().Triple(t);
    // Locally cheapest method whose required vars are already bound.
    int best_node = -1;
    for (size_t i = 1; i < g.nodes().size(); ++i) {
      const FlowNode& n = g.nodes()[i];
      if (n.triple_id != t) continue;
      bool ok = true;
      for (const auto& v : RequiredVars(tp, n.method)) {
        if (!is_bound(v)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      if (best_node < 0 ||
          n.cost < g.nodes()[U(best_node)].cost) {
        best_node = static_cast<int>(i);
      }
    }
    RDFREL_CHECK(best_node >= 0);  // the scan node is always admissible
    const FlowNode& n = g.nodes()[U(best_node)];
    FlowChoice c;
    c.triple_id = t;
    c.method = n.method;
    c.parent_triple = t > 1 ? t - 1 : 0;
    c.cost = n.cost;
    c.rank = t - 1;
    tree.choice_of_triple_[U(t)] = static_cast<int>(tree.choices_.size());
    if (t > 1) tree.has_consumer_[U(t - 1)] = true;
    tree.choices_.push_back(c);
    for (const auto& v : ProducedVars(tp, n.method)) {
      if (!is_bound(v)) bound.push_back(v);
    }
  }
  return tree;
}

}  // namespace rdfrel::opt
