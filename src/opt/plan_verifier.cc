#include "opt/plan_verifier.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "opt/access_method.h"

namespace rdfrel::opt {

namespace {

std::string FlowPath(size_t pos, int triple_id) {
  return "flow.choice[" + std::to_string(pos) + "] (t" +
         std::to_string(triple_id) + ")";
}

bool TermOrVarEqual(const sparql::TermOrVar& a, const sparql::TermOrVar& b) {
  if (a.is_var != b.is_var) return false;
  return a.is_var ? a.var == b.var : a.term == b.term;
}

/// The entry component a method keys on: object for aco, subject otherwise.
const sparql::TermOrVar& EntryOf(const sparql::TriplePattern& t,
                                 AccessMethod m) {
  return m == AccessMethod::kAco ? t.object : t.subject;
}

}  // namespace

Status VerifyFlowChoices(const DataFlowGraph& g,
                         const std::vector<FlowChoice>& choices,
                         FlowVerifyLevel level) {
  const QueryTreeIndex& tree = g.tree();
  const int num_triples = tree.num_triples();
  if (static_cast<int>(choices.size()) != num_triples) {
    return Status::InternalPlanError(
        "flow: " + std::to_string(choices.size()) + " choices for " +
        std::to_string(num_triples) + " triples");
  }

  // Triple id -> position in the choice list; rejects duplicates and
  // out-of-range ids, so every triple is covered exactly once.
  std::map<int, size_t> pos_of_triple;
  for (size_t i = 0; i < choices.size(); ++i) {
    const FlowChoice& c = choices[i];
    if (c.triple_id < 1 || c.triple_id > num_triples) {
      return Status::InternalPlanError(
          FlowPath(i, c.triple_id) + ": triple id out of range [1, " +
          std::to_string(num_triples) + "]");
    }
    if (!pos_of_triple.emplace(c.triple_id, i).second) {
      return Status::InternalPlanError(
          FlowPath(i, c.triple_id) + ": triple covered more than once");
    }
    if (c.rank != static_cast<int>(i)) {
      return Status::InternalPlanError(
          FlowPath(i, c.triple_id) + ": rank " + std::to_string(c.rank) +
          " does not match position");
    }
  }

  std::set<std::string> bound;  // all variables bound by earlier choices
  for (size_t i = 0; i < choices.size(); ++i) {
    const FlowChoice& c = choices[i];
    const sparql::TriplePattern& t = *tree.Triple(c.triple_id);
    if (!MethodApplicable(t, c.method)) {
      return Status::InternalPlanError(
          FlowPath(i, c.triple_id) + ": access method " +
          AccessMethodToString(c.method) + " not applicable");
    }

    // The parent must be the root or a triple chosen strictly earlier
    // (this also rules out cycles, making the guard walk below safe).
    if (c.parent_triple != 0) {
      auto it = pos_of_triple.find(c.parent_triple);
      if (it == pos_of_triple.end()) {
        return Status::InternalPlanError(
            FlowPath(i, c.triple_id) + ": fed by unknown triple t" +
            std::to_string(c.parent_triple));
      }
      if (it->second >= i) {
        return Status::InternalPlanError(
            FlowPath(i, c.triple_id) + ": fed by t" +
            std::to_string(c.parent_triple) +
            " which is not chosen earlier");
      }
    }

    // Required variables must be bound before this lookup runs.
    for (const std::string& v : RequiredVars(t, c.method)) {
      if (level == FlowVerifyLevel::kStrict) {
        // Strict: produced by the *direct* parent (the data-flow-graph
        // edge contract of Definition 3.8).
        bool produced = false;
        if (c.parent_triple != 0) {
          const FlowChoice& p = choices[pos_of_triple[c.parent_triple]];
          const sparql::TriplePattern& pt = *tree.Triple(p.triple_id);
          auto pv = ProducedVars(pt, p.method);
          produced = std::find(pv.begin(), pv.end(), v) != pv.end();
        }
        if (!produced) {
          return Status::InternalPlanError(
              FlowPath(i, c.triple_id) + ": required variable ?" + v +
              " not produced by feeding triple t" +
              std::to_string(c.parent_triple));
        }
      } else if (bound.count(v) == 0) {
        return Status::InternalPlanError(
            FlowPath(i, c.triple_id) + ": required variable ?" + v +
            " not bound by any earlier choice");
      }
    }

    // OR / OPTIONAL guards along the feeding path (strict builders use
    // PathAdmissible; the parse-order ablation deliberately does not).
    if (level == FlowVerifyLevel::kStrict) {
      for (int a = c.parent_triple; a != 0;
           a = choices[pos_of_triple[a]].parent_triple) {
        if (tree.OrConnected(a, c.triple_id)) {
          return Status::InternalPlanError(
              FlowPath(i, c.triple_id) + ": fed across a UNION boundary by t" +
              std::to_string(a));
        }
        if (tree.OptionalConnected(c.triple_id, a)) {
          return Status::InternalPlanError(
              FlowPath(i, c.triple_id) +
              ": bindings escape an OPTIONAL via t" + std::to_string(a));
        }
      }
    }

    for (const std::string& v : ProducedVars(t, c.method)) bound.insert(v);
  }
  return Status::OK();
}

Status VerifyFlowTree(const DataFlowGraph& g, const FlowTree& tree,
                      FlowVerifyLevel level) {
  return VerifyFlowChoices(g, tree.choices(), level);
}

namespace {

/// Recursive exec-tree walker carrying the dotted path and collecting
/// covered triple ids.
class ExecVerifier {
 public:
  ExecVerifier(const sparql::Query& query, const PlanVerifyContext& ctx)
      : query_(query), ctx_(ctx) {}

  Status Run(const ExecNode& root) {
    RDFREL_RETURN_NOT_OK(Visit(root, "plan"));
    // Coverage: each triple pattern answered exactly once.
    for (int id = 1; id <= query_.num_triples; ++id) {
      size_t n = covered_.count(id);
      if (n == 0) {
        return Status::InternalPlanError(
            "plan: triple t" + std::to_string(id) + " is not answered");
      }
      if (n > 1) {
        return Status::InternalPlanError(
            "plan: triple t" + std::to_string(id) + " answered " +
            std::to_string(n) + " times");
      }
    }
    if (static_cast<int>(covered_.size()) !=
        static_cast<int>(query_.num_triples)) {
      return Status::InternalPlanError(
          "plan: covers triples outside the query");
    }
    return Status::OK();
  }

 private:
  Status Visit(const ExecNode& n, const std::string& path) {
    if (n.fold != nullptr) RDFREL_RETURN_NOT_OK(VisitFold(n, path));
    switch (n.kind) {
      case ExecKind::kTriple:
        return VisitTriple(n, path);
      case ExecKind::kStar:
        return VisitStar(n, path);
      case ExecKind::kAnd:
      case ExecKind::kOr:
      case ExecKind::kOptional:
        return VisitInner(n, path);
    }
    return Status::InternalPlanError(path + ": unknown node kind");
  }

  /// A folded subtree answers its absorbed branches' triples too. Its
  /// positions must be constants of its own triples, its tuples pairwise
  /// distinct and as wide as the positions, and each absorbed branch as
  /// large as the subtree.
  Status VisitFold(const ExecNode& n, const std::string& parent_path) {
    const std::string path = parent_path + ".fold";
    const UnionFold& f = *n.fold;
    if (f.tuples.size() < 2) {
      return Status::InternalPlanError(path +
                                       ": fold of fewer than two branches");
    }
    if (f.positions.empty()) {
      return Status::InternalPlanError(path + ": fold without a position");
    }
    std::vector<const sparql::TriplePattern*> own;
    CollectTriples(n, &own);
    std::set<const sparql::TermOrVar*> unread;
    CollectSharedEntries(n, &unread);
    for (const FoldPosition& p : f.positions) {
      if (std::find(own.begin(), own.end(), p.triple) == own.end() ||
          p.At().is_var) {
        return Status::InternalPlanError(
            path + ": position is not a constant of the folded subtree");
      }
      if (unread.count(&p.At()) != 0) {
        return Status::InternalPlanError(
            path + ": position is the entry of a star member after the "
                   "first (t" + std::to_string(p.triple->id) + ")");
      }
    }
    std::set<std::vector<rdf::Term>> seen;
    for (const auto& tuple : f.tuples) {
      std::vector<rdf::Term> terms;
      for (const rdf::Term* t : tuple) {
        if (t == nullptr) break;
        terms.push_back(*t);
      }
      if (terms.size() != f.positions.size()) {
        return Status::InternalPlanError(
            path + ": tuple arity " + std::to_string(terms.size()) +
            " != position count " + std::to_string(f.positions.size()));
      }
      if (!seen.insert(std::move(terms)).second) {
        return Status::InternalPlanError(path + ": repeated tuple");
      }
    }
    if (f.absorbed.size() != own.size() * (f.tuples.size() - 1)) {
      return Status::InternalPlanError(
          path + ": " + std::to_string(f.absorbed.size()) +
          " absorbed triples for " + std::to_string(f.tuples.size() - 1) +
          " branches of " + std::to_string(own.size()));
    }
    for (const sparql::TriplePattern* t : f.absorbed) covered_.insert(t->id);
    return Status::OK();
  }

  /// The entries of star members after the first: a star reads its shared
  /// entry from its first member only.
  static void CollectSharedEntries(const ExecNode& n,
                                   std::set<const sparql::TermOrVar*>* out) {
    for (size_t i = 1; i < n.star_triples.size(); ++i) {
      out->insert(&EntryOf(*n.star_triples[i], n.method));
    }
    for (const auto& c : n.children) CollectSharedEntries(*c, out);
  }

  static void CollectTriples(const ExecNode& n,
                             std::vector<const sparql::TriplePattern*>* out) {
    if (n.triple != nullptr) out->push_back(n.triple);
    out->insert(out->end(), n.star_triples.begin(), n.star_triples.end());
    for (const auto& c : n.children) CollectTriples(*c, out);
  }

  Status VisitTriple(const ExecNode& n, const std::string& parent_path) {
    if (n.triple == nullptr) {
      return Status::InternalPlanError(parent_path +
                                       ".t?: triple node without a triple");
    }
    std::string path = parent_path + ".t" + std::to_string(n.triple->id);
    if (!n.children.empty()) {
      return Status::InternalPlanError(path + ": triple node has children");
    }
    if (!n.star_triples.empty() || !n.star_optional.empty()) {
      return Status::InternalPlanError(path +
                                       ": triple node carries star members");
    }
    if (!MethodApplicable(*n.triple, n.method)) {
      return Status::InternalPlanError(
          path + ": access method " + AccessMethodToString(n.method) +
          " not applicable");
    }
    covered_.insert(n.triple->id);
    return CheckColumns(*n.triple, n.method, path);
  }

  Status VisitStar(const ExecNode& n, const std::string& parent_path) {
    std::string path = parent_path + ".star";
    if (!n.children.empty() || n.triple != nullptr) {
      return Status::InternalPlanError(
          path + ": star node must be a leaf without a single triple");
    }
    if (n.star_triples.size() < 2) {
      return Status::InternalPlanError(
          path + ": star with fewer than two members");
    }
    if (n.star_optional.size() != n.star_triples.size()) {
      return Status::InternalPlanError(
          path + ": star_optional size " +
          std::to_string(n.star_optional.size()) + " != member count " +
          std::to_string(n.star_triples.size()));
    }
    if (n.star_optional.front()) {
      return Status::InternalPlanError(
          path + ": first star member must be mandatory");
    }
    const sparql::TriplePattern* first = n.star_triples.front();
    for (size_t i = 0; i < n.star_triples.size(); ++i) {
      const sparql::TriplePattern* t = n.star_triples[i];
      std::string mpath =
          path + ".member[" + std::to_string(i) + "]";
      if (t == nullptr) {
        return Status::InternalPlanError(mpath + ": null member");
      }
      mpath += " (t" + std::to_string(t->id) + ")";
      if (t->predicate.is_var) {
        return Status::InternalPlanError(
            mpath + ": star member with variable predicate");
      }
      if (t->path_mod != sparql::PathMod::kNone) {
        return Status::InternalPlanError(
            mpath + ": star member with a property-path modifier");
      }
      if (!TermOrVarEqual(EntryOf(*t, n.method), EntryOf(*first, n.method))) {
        return Status::InternalPlanError(
            mpath + ": entry differs from the star's shared entry");
      }
      if (n.star_semantics == StarSemantics::kDisjunctive &&
          n.star_optional[i]) {
        return Status::InternalPlanError(
            mpath + ": OPTIONAL member in a disjunctive star");
      }
      covered_.insert(t->id);
      RDFREL_RETURN_NOT_OK(CheckColumns(*t, n.method, mpath));
    }
    return Status::OK();
  }

  Status VisitInner(const ExecNode& n, const std::string& parent_path) {
    const char* tag = n.kind == ExecKind::kAnd
                          ? "and"
                          : (n.kind == ExecKind::kOr ? "or" : "opt");
    std::string path = parent_path + "." + tag;
    if (n.triple != nullptr || !n.star_triples.empty()) {
      return Status::InternalPlanError(
          path + ": inner node carries leaf payload");
    }
    if (n.kind == ExecKind::kOptional) {
      if (n.children.size() != 1) {
        return Status::InternalPlanError(
            path + ": OPTIONAL must have exactly one child, has " +
            std::to_string(n.children.size()));
      }
    } else if (n.kind == ExecKind::kOr) {
      if (n.children.size() < 2) {
        return Status::InternalPlanError(
            path + ": OR needs at least two branches");
      }
    } else {  // kAnd: single-child ANDs survive only to host filters
      if (n.children.empty() ||
          (n.children.size() == 1 && n.filters.empty())) {
        return Status::InternalPlanError(
            path + ": AND must have two children or one child plus filters");
      }
    }
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (n.children[i] == nullptr) {
        return Status::InternalPlanError(
            path + "[" + std::to_string(i) + "]: null child");
      }
      RDFREL_RETURN_NOT_OK(
          Visit(*n.children[i], path + "[" + std::to_string(i) + "]"));
    }
    return Status::OK();
  }

  /// DPH/RPH column contract: a constant, non-path predicate must map to a
  /// non-empty candidate set inside the active mapping's column range
  /// (paper §2.2). Skipped without a schema context or for closure-table
  /// triples, which never touch the primary relations.
  Status CheckColumns(const sparql::TriplePattern& t, AccessMethod m,
                      const std::string& path) const {
    if (t.predicate.is_var || t.path_mod != sparql::PathMod::kNone) {
      return Status::OK();
    }
    const bool reverse = m == AccessMethod::kAco;
    const schema::PredicateMapping* mapping =
        reverse ? ctx_.reverse : ctx_.direct;
    if (mapping == nullptr) return Status::OK();
    const uint32_t k = reverse ? ctx_.k_reverse : ctx_.k_direct;
    const char* table = reverse ? "RPH" : "DPH";
    if (k != 0 && mapping->num_columns() != k) {
      return Status::InternalPlanError(
          path + ": " + table + " mapping has " +
          std::to_string(mapping->num_columns()) + " columns, schema has " +
          std::to_string(k));
    }
    uint64_t pid =
        ctx_.dict != nullptr ? ctx_.dict->Lookup(t.predicate.term) : 0;
    auto cols = mapping->Columns({pid, t.predicate.term.lexical()});
    if (cols.empty()) {
      return Status::InternalPlanError(
          path + ": predicate maps to no " + std::string(table) + " column");
    }
    for (uint32_t c : cols) {
      if (c >= mapping->num_columns()) {
        return Status::InternalPlanError(
            path + ": predicate column " + std::to_string(c) +
            " outside " + table + " range [0, " +
            std::to_string(mapping->num_columns()) + ")");
      }
    }
    return Status::OK();
  }

  const sparql::Query& query_;
  const PlanVerifyContext& ctx_;
  std::multiset<int> covered_;
};

}  // namespace

Status VerifyExecTree(const ExecNode& root, const sparql::Query& query,
                      const PlanVerifyContext& ctx) {
  ExecVerifier v(query, ctx);
  return v.Run(root);
}

}  // namespace rdfrel::opt
