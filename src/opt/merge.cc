#include "opt/merge.h"

#include <algorithm>

#include "util/logging.h"

namespace rdfrel::opt {

namespace {

/// acs and sc both access the direct (DPH) side keyed by subject; aco the
/// reverse (RPH) side keyed by object. Star merging requires only that two
/// accesses hit the same side — an entry restriction is emitted iff the
/// entity is bound, regardless of scan vs lookup.
bool SameDirection(AccessMethod a, AccessMethod b) {
  return (a == AccessMethod::kAco) == (b == AccessMethod::kAco);
}

bool TermOrVarEqual(const sparql::TermOrVar& a, const sparql::TermOrVar& b) {
  if (a.is_var != b.is_var) return false;
  return a.is_var ? a.var == b.var : a.term == b.term;
}

/// Whether every pattern node strictly between triple \p t's leaf and the
/// node \p lca has kind \p kind.
bool PathAllAre(const QueryTreeIndex& tree, int t, int lca,
                sparql::PatternKind kind) {
  for (int n = tree.Parent(tree.LeafNode(t)); n >= 0 && n != lca;
       n = tree.Parent(n)) {
    if (tree.Kind(n) != kind) return false;
  }
  return true;
}

}  // namespace

bool AndMergeable(const QueryTreeIndex& tree, int t1, int t2) {
  const int lca = tree.LcaNode(t1, t2);
  if (tree.Kind(lca) != sparql::PatternKind::kAnd) return false;
  return PathAllAre(tree, t1, lca, sparql::PatternKind::kAnd) &&
         PathAllAre(tree, t2, lca, sparql::PatternKind::kAnd);
}

bool OrMergeable(const QueryTreeIndex& tree, int t1, int t2) {
  const int lca = tree.LcaNode(t1, t2);
  if (tree.Kind(lca) != sparql::PatternKind::kOr) return false;
  return PathAllAre(tree, t1, lca, sparql::PatternKind::kOr) &&
         PathAllAre(tree, t2, lca, sparql::PatternKind::kOr);
}

bool OptMergeable(const QueryTreeIndex& tree, int t_main, int t_opt) {
  const int lca = tree.LcaNode(t_main, t_opt);
  if (tree.Kind(lca) != sparql::PatternKind::kAnd) return false;
  if (!PathAllAre(tree, t_main, lca, sparql::PatternKind::kAnd)) {
    return false;
  }
  // The optional triple's path: all ANDs except its guarding OPTIONAL,
  // which must be its (possibly indirect-through-ANDs) nearest non-AND
  // ancestor — Definition 3.11's "parent of the higher order triple".
  int optionals = 0;
  for (int n = tree.Parent(tree.LeafNode(t_opt)); n >= 0 && n != lca;
       n = tree.Parent(n)) {
    if (tree.Kind(n) == sparql::PatternKind::kOptional) {
      ++optionals;
    } else if (tree.Kind(n) != sparql::PatternKind::kAnd) {
      return false;
    }
  }
  return optionals == 1;
}

namespace {

class Merger {
 public:
  Merger(const QueryTreeIndex& tree, const SpillCheck& has_spill)
      : tree_(tree), has_spill_(has_spill) {}

  ExecNodePtr Rewrite(ExecNodePtr node) {
    for (auto& c : node->children) c = Rewrite(std::move(c));
    switch (node->kind) {
      case ExecKind::kOr:
        return TryMergeOr(std::move(node));
      case ExecKind::kAnd:
        return MergeWithinAnd(std::move(node));
      default:
        return node;
    }
  }

 private:
  /// A triple is a star candidate when its entry access is by subject or
  /// object (scans have no shared-entry row to exploit), its predicate is a
  /// constant, and the predicate is spill-free.
  bool Candidate(const ExecNode& n) const {
    if (n.kind != ExecKind::kTriple) return false;
    if (n.triple->predicate.is_var) return false;
    // Transitive-path triples evaluate against a closure table, not the
    // primary relations, so they can never share a star access.
    if (n.triple->path_mod != sparql::PathMod::kNone) return false;
    return !has_spill_(*n.triple, n.method);
  }

  ExecNodePtr TryMergeOr(ExecNodePtr node) {
    if (node->children.size() < 2) return node;
    const ExecNode& first = *node->children.front();
    if (!Candidate(first)) return node;
    for (const auto& c : node->children) {
      if (!Candidate(*c)) return node;
      if (!SameDirection(c->method, first.method)) return node;
      if (!TermOrVarEqual(c->Entry(), first.Entry())) return node;
    }
    for (size_t i = 0; i < node->children.size(); ++i) {
      for (size_t j = i + 1; j < node->children.size(); ++j) {
        if (!OrMergeable(tree_, node->children[i]->triple->id,
                         node->children[j]->triple->id)) {
          return node;
        }
      }
    }
    auto star = std::make_unique<ExecNode>();
    star->kind = ExecKind::kStar;
    star->method = first.method;
    star->star_semantics = StarSemantics::kDisjunctive;
    for (const auto& c : node->children) {
      star->star_triples.push_back(c->triple);
      star->star_optional.push_back(false);
    }
    star->filters = std::move(node->filters);
    return star;
  }

  ExecNodePtr MergeWithinAnd(ExecNodePtr node) {
    auto& kids = node->children;
    // Pass 1: conjunctive star merges among triple children.
    for (size_t i = 0; i < kids.size(); ++i) {
      // The host is either a candidate triple or a star this pass created.
      if (!(Candidate(*kids[i]) ||
            (kids[i]->kind == ExecKind::kStar &&
             kids[i]->star_semantics == StarSemantics::kConjunctive))) {
        continue;
      }
      for (size_t j = i + 1; j < kids.size();) {
        int host_id = kids[i]->kind == ExecKind::kTriple
                          ? kids[i]->triple->id
                          : kids[i]->star_triples.front()->id;
        if (Candidate(*kids[j]) &&
            SameDirection(kids[j]->method, kids[i]->method) &&
            TermOrVarEqual(kids[j]->Entry(), kids[i]->Entry()) &&
            AndMergeable(tree_, host_id, kids[j]->triple->id)) {
          // Fold j into a star at position i.
          if (kids[i]->kind == ExecKind::kTriple) {
            auto star = std::make_unique<ExecNode>();
            star->kind = ExecKind::kStar;
            star->method = kids[i]->method;
            star->star_semantics = StarSemantics::kConjunctive;
            star->star_triples.push_back(kids[i]->triple);
            star->star_optional.push_back(false);
            kids[i] = std::move(star);
          }
          kids[i]->star_triples.push_back(kids[j]->triple);
          kids[i]->star_optional.push_back(false);
          kids.erase(kids.begin() + static_cast<std::ptrdiff_t>(j));
        } else {
          ++j;
        }
      }
    }
    // Pass 2: fold OPTIONAL{single triple} children into a preceding
    // triple/star sibling (OPTMergeable).
    for (size_t j = 0; j < kids.size();) {
      ExecNode& opt = *kids[j];
      if (opt.kind != ExecKind::kOptional || opt.children.size() != 1 ||
          opt.children[0]->kind != ExecKind::kTriple ||
          !opt.filters.empty()) {
        ++j;
        continue;
      }
      const ExecNode& inner = *opt.children[0];
      if (!Candidate(inner)) {
        ++j;
        continue;
      }
      bool folded = false;
      for (size_t i = 0; i < j && !folded; ++i) {
        ExecNode& host = *kids[i];
        bool host_ok =
            (host.kind == ExecKind::kTriple && Candidate(host)) ||
            (host.kind == ExecKind::kStar &&
             host.star_semantics == StarSemantics::kConjunctive);
        if (!host_ok) continue;
        if (!SameDirection(host.method, inner.method)) continue;
        if (!TermOrVarEqual(host.Entry(), inner.Entry())) continue;
        int host_triple = host.kind == ExecKind::kTriple
                              ? host.triple->id
                              : host.star_triples.front()->id;
        if (!OptMergeable(tree_, host_triple, inner.triple->id)) continue;
        if (host.kind == ExecKind::kTriple) {
          auto star = std::make_unique<ExecNode>();
          star->kind = ExecKind::kStar;
          star->method = host.method;
          star->star_semantics = StarSemantics::kConjunctive;
          star->star_triples.push_back(host.triple);
          star->star_optional.push_back(false);
          kids[i] = std::move(star);
        }
        kids[i]->star_triples.push_back(inner.triple);
        kids[i]->star_optional.push_back(true);
        kids.erase(kids.begin() + static_cast<std::ptrdiff_t>(j));
        folded = true;
      }
      if (!folded) ++j;
    }
    if (kids.size() == 1 && node->filters.empty()) {
      return std::move(kids.front());
    }
    return node;
  }

  const QueryTreeIndex& tree_;
  const SpillCheck& has_spill_;
};

}  // namespace

ExecNodePtr MergeExecTree(ExecNodePtr root, const QueryTreeIndex& tree,
                          const SpillCheck& has_spill) {
  Merger m(tree, has_spill);
  return m.Rewrite(std::move(root));
}

}  // namespace rdfrel::opt
