#include "opt/data_flow_graph.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace rdfrel::opt {

// ------------------------------------------------------------ QueryTreeIndex

namespace {

/// Triple ids and node numbers are ints throughout the optimizer; vectors
/// index by size_t. Centralizes the (always non-negative) cast.
inline size_t U(int i) { return static_cast<size_t>(i); }

}  // namespace

QueryTreeIndex::QueryTreeIndex(const sparql::Pattern& root) {
  Walk(&root, -1, -1, 0);
}

void QueryTreeIndex::Walk(const sparql::Pattern* node, int parent,
                          int opt_scope, int depth) {
  const int self = static_cast<int>(node_.size());
  node_.push_back(node);
  kind_.push_back(node->kind);
  parent_.push_back(parent);
  depth_.push_back(depth);
  end_.push_back(self + 1);
  opt_scope_.push_back(opt_scope);
  if (node->kind == sparql::PatternKind::kTriple) {
    const int id = node->triple.id;
    if (id > num_triples()) {
      triples_.resize(U(id));
      leaf_of_triple_.resize(U(id + 1), -1);
    }
    triples_[U(id - 1)] = &node->triple;
    leaf_of_triple_[U(id)] = self;
    return;
  }
  const int child_scope =
      node->kind == sparql::PatternKind::kOptional ? self : opt_scope;
  for (const auto& c : node->children) {
    Walk(c.get(), self, child_scope, depth + 1);
  }
  end_[U(self)] = static_cast<int>(node_.size());
}

int QueryTreeIndex::LcaNode(int t1, int t2) const {
  int a = LeafNode(t1), b = LeafNode(t2);
  while (depth_[U(a)] > depth_[U(b)]) a = parent_[U(a)];
  while (depth_[U(b)] > depth_[U(a)]) b = parent_[U(b)];
  while (a != b) {
    a = parent_[U(a)];
    b = parent_[U(b)];
  }
  return a;
}

bool QueryTreeIndex::OrConnected(int t1, int t2) const {
  if (t1 == t2) return false;
  return Kind(LcaNode(t1, t2)) == sparql::PatternKind::kOr;
}

bool QueryTreeIndex::OptionalConnected(int t, int t_prime) const {
  if (t == t_prime) return false;
  // An OPTIONAL strictly below the LCA on t''s path exists iff t''s nearest
  // one does not also enclose t (an enclosing one is at or above the LCA).
  const int scope = OptionalScope(LeafNode(t_prime));
  return scope >= 0 && !Encloses(scope, LeafNode(t));
}

// ------------------------------------------------------------- DataFlowGraph

std::string FlowNode::ToString() const {
  if (is_root()) return "root";
  return "(t" + std::to_string(triple_id) + "," +
         AccessMethodToString(method) + ")";
}

namespace {

/// Data-flow-graph nodes indexed by the variables they produce, so Build
/// visits only the admissible producers of a target's entry variable
/// instead of every node pair.
class ProducerIndex {
 public:
  /// The interned id of \p var; -1 when no node produces it.
  int Find(const std::string& var) const {
    auto it = ids_.find(var);
    return it == ids_.end() ? -1 : it->second;
  }

  /// Records the (distinct) variables \p vars that node \p node — the
  /// next node number, of the triple at \p leaf in OPTIONAL scope
  /// \p scope — produces.
  void Add(int node, int leaf, int scope,
           const std::vector<std::string>& vars) {
    begin_.push_back(static_cast<int>(produced_.size()));
    for (const std::string& v : vars) {
      const int id =
          ids_.emplace(v, static_cast<int>(ids_.size())).first->second;
      produced_.push_back(id);
      entries_.push_back(Entry{id, scope, leaf, node});
    }
  }

  /// Call once after the last Add.
  void Seal() {
    begin_.push_back(static_cast<int>(produced_.size()));
    std::sort(entries_.begin(), entries_.end());
  }

  /// Whether \p node produces variable \p var (an interned id).
  bool Produces(int node, int var) const {
    auto first = produced_.begin() + begin_[U(node - 1)];
    auto last = produced_.begin() + begin_[U(node)];
    return std::find(first, last, var) != last;
  }

  /// Appends every node producing \p var whose triple's leaf lies in
  /// [lo, hi) and whose OPTIONAL scope is \p scope.
  void Collect(int var, int scope, int lo, int hi,
               std::vector<int>* out) const {
    auto it = std::lower_bound(entries_.begin(), entries_.end(),
                               Entry{var, scope, lo, 0});
    for (; it != entries_.end() && it->var == var && it->scope == scope &&
           it->leaf < hi;
         ++it) {
      out->push_back(it->node);
    }
  }

 private:
  struct Entry {
    int var, scope, leaf, node;
    bool operator<(const Entry& o) const {
      if (var != o.var) return var < o.var;
      if (scope != o.scope) return scope < o.scope;
      if (leaf != o.leaf) return leaf < o.leaf;
      return node < o.node;
    }
  };
  std::unordered_map<std::string, int> ids_;
  std::vector<int> begin_;  // node n's ids: [begin_[n-1], begin_[n])
  std::vector<int> produced_;
  std::vector<Entry> entries_;
};

/// Appends the admissible sources producing \p var for a target at leaf
/// \p leaf: nodes whose triple's LCA with the target is not an OR
/// (Definition 3.6) and whose OPTIONAL scope encloses the target
/// (Definition 3.7). Those triples lie, for each non-OR ancestor p of the
/// leaf with child c on the leaf's path, in p's subtree outside c's.
void CollectAdmissible(const QueryTreeIndex& tree, const ProducerIndex& index,
                       int var, int leaf, std::vector<int>* scopes,
                       std::vector<int>* out) {
  scopes->clear();
  for (int s = tree.OptionalScope(leaf);; s = tree.OptionalScope(s)) {
    scopes->push_back(s);
    if (s < 0) break;
  }
  auto collect = [&](int lo, int hi) {
    for (int s : *scopes) index.Collect(var, s, lo, hi, out);
  };
  for (int c = leaf, p = tree.Parent(leaf); p >= 0;
       c = p, p = tree.Parent(p)) {
    if (tree.Kind(p) == sparql::PatternKind::kOr) continue;
    collect(p, c);
    collect(tree.SubtreeEnd(c), tree.SubtreeEnd(p));
  }
}

}  // namespace

DataFlowGraph DataFlowGraph::Build(const sparql::Query& query,
                                   const CostModel& cost) {
  DataFlowGraph g;
  g.tree_ = std::make_shared<QueryTreeIndex>(*query.where);
  const QueryTreeIndex& tree = *g.tree_;
  g.nodes_.push_back(FlowNode{});  // root at index 0

  static constexpr AccessMethod kMethods[] = {
      AccessMethod::kAcs, AccessMethod::kAco, AccessMethod::kScan};
  ProducerIndex producers;
  for (int t = 1; t <= tree.num_triples(); ++t) {
    const sparql::TriplePattern& tp = *tree.Triple(t);
    const int leaf = tree.LeafNode(t);
    for (AccessMethod m : kMethods) {
      if (!MethodApplicable(tp, m)) continue;
      FlowNode node;
      node.triple_id = t;
      node.method = m;
      node.cost = cost.Tmc(tp, m);
      g.nodes_.push_back(node);
      producers.Add(static_cast<int>(g.nodes_.size() - 1), leaf,
                    tree.OptionalScope(leaf), ProducedVars(tp, m));
    }
  }
  producers.Seal();

  g.out_.resize(g.nodes_.size());
  auto add_edge = [&](int from, int to, double w) {
    g.out_[U(from)].push_back(static_cast<int>(g.edges_.size()));
    g.edges_.push_back(FlowEdge{from, to, w});
  };

  // Edges into each target, sources in ascending node order — the order
  // the all-pairs formulation of Definition 3.8 produces.
  std::vector<int> sources, scopes, req_ids;
  for (size_t j = 1; j < g.nodes_.size(); ++j) {
    const FlowNode& target = g.nodes_[j];
    const sparql::TriplePattern& tt = *tree.Triple(target.triple_id);
    std::vector<std::string> req = RequiredVars(tt, target.method);
    if (req.empty()) {
      // Root edge: the node is evaluable from scratch.
      add_edge(0, static_cast<int>(j), target.cost);
      continue;
    }
    req_ids.clear();
    for (const std::string& v : req) req_ids.push_back(producers.Find(v));
    if (std::find(req_ids.begin(), req_ids.end(), -1) != req_ids.end()) {
      continue;  // some required variable has no producer at all
    }
    sources.clear();
    CollectAdmissible(tree, producers, req_ids[0],
                      tree.LeafNode(target.triple_id), &scopes, &sources);
    std::sort(sources.begin(), sources.end());
    for (int i : sources) {
      // The index matched req[0]; a source must bind every requirement.
      bool covers = std::all_of(
          req_ids.begin() + 1, req_ids.end(),
          [&](int v) { return producers.Produces(i, v); });
      if (covers) add_edge(i, static_cast<int>(j), target.cost);
    }
  }
  return g;
}

std::string DataFlowGraph::ToString() const {
  std::string out;
  for (const auto& e : edges_) {
    out += nodes_[static_cast<size_t>(e.from)].ToString() + " -> " +
           nodes_[static_cast<size_t>(e.to)].ToString() +
           " [" + std::to_string(e.weight) + "]\n";
  }
  return out;
}

}  // namespace rdfrel::opt
