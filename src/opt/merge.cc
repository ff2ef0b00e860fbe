#include "opt/merge.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

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
        node = TryMergeOr(std::move(node));
        if (node->kind != ExecKind::kOr) return node;
        return FoldOr(std::move(node));
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
    if (n.kind != ExecKind::kTriple || n.fold != nullptr) return false;
    if (n.triple->predicate.is_var) return false;
    // Transitive-path triples evaluate against a closure table, not the
    // primary relations, so they can never share a star access.
    if (n.triple->path_mod != sparql::PathMod::kNone) return false;
    return !has_spill_(*n.triple, n.method);
  }

  /// A star that more AND members may join. A folded star stays as it is:
  /// its fold describes exactly the branches it answers.
  static bool ConjunctiveStar(const ExecNode& n) {
    return n.kind == ExecKind::kStar &&
           n.star_semantics == StarSemantics::kConjunctive &&
           n.fold == nullptr;
  }

  /// A subtree's plan with every constant subject/object replaced by a
  /// placeholder (\p key), those constants' positions in plan order, and
  /// the subtree's triples. Two UNION branches with equal keys are the same
  /// plan up to the constants at \p consts.
  struct Shape {
    std::string key;
    std::vector<FoldPosition> consts;
    std::vector<const sparql::TriplePattern*> triples;
  };

  /// Appends \p n to \p s; false when \p n cannot fold: it holds a FILTER,
  /// an OPTIONAL (also an OPT-merged star member), a nested OR (also a
  /// disjunctive star), a fold, a variable predicate or a property path.
  static bool AppendShape(const ExecNode& n, Shape* s) {
    if (n.fold != nullptr || !n.filters.empty()) return false;
    switch (n.kind) {
      case ExecKind::kTriple:
        return AppendTriple(*n.triple, n.method, s);
      case ExecKind::kStar:
        if (n.star_semantics != StarSemantics::kConjunctive) return false;
        s->key += "S[";
        for (size_t i = 0; i < n.star_triples.size(); ++i) {
          if (n.star_optional[i]) return false;
          // The members share one entry, which the star reads from its
          // first member: only that member's entry is a position.
          if (!AppendTriple(*n.star_triples[i], n.method, s,
                            /*shared_entry=*/i > 0)) {
            return false;
          }
        }
        s->key += "]";
        return true;
      case ExecKind::kAnd:
        s->key += "A[";
        for (const auto& c : n.children) {
          if (!AppendShape(*c, s)) return false;
        }
        s->key += "]";
        return true;
      default:
        return false;
    }
  }

  /// \p shared_entry: \p t is a star member after the first, whose entry
  /// (subject, or object under aco) is not recorded as a position.
  static bool AppendTriple(const sparql::TriplePattern& t, AccessMethod m,
                           Shape* s, bool shared_entry = false) {
    if (t.predicate.is_var || t.path_mod != sparql::PathMod::kNone) {
      return false;
    }
    auto part = [](const sparql::TermOrVar& tv) {
      return tv.is_var ? "?" + tv.var : std::string("#");
    };
    s->key += "(" + std::string(AccessMethodToString(m)) + " " +
              part(t.subject) + " " + t.predicate.ToString() + " " +
              part(t.object) + ")";
    const bool entry_is_object = m == AccessMethod::kAco;
    if (!t.subject.is_var && !(shared_entry && !entry_is_object)) {
      s->consts.push_back({&t, false});
    }
    if (!t.object.is_var && !(shared_entry && entry_is_object)) {
      s->consts.push_back({&t, true});
    }
    s->triples.push_back(&t);
    return true;
  }

  static std::vector<rdf::Term> ConstantsOf(const Shape& s) {
    std::vector<rdf::Term> out;
    for (const FoldPosition& p : s.consts) out.push_back(p.At().term);
    return out;
  }

  /// UNION folding (DESIGN.md §1 item 4): splits the OR's branches into
  /// classes of equal Shape and pairwise distinct constant tuples, and
  /// folds each class of two or more into its first branch. A branch that
  /// repeats a tuple opens a class of its own, so bag multiplicities
  /// survive.
  ExecNodePtr FoldOr(ExecNodePtr node) {
    auto& kids = node->children;
    struct Class {
      std::vector<size_t> members;
      std::set<std::vector<rdf::Term>> tuples;
    };
    std::vector<Shape> shapes(kids.size());
    std::vector<Class> classes;
    std::map<std::string, std::vector<size_t>> classes_by_key;
    std::vector<int> class_of(kids.size(), -1);  ///< set on class heads
    std::vector<bool> joined(kids.size(), false);  ///< folded into a head
    for (size_t i = 0; i < kids.size(); ++i) {
      if (!AppendShape(*kids[i], &shapes[i])) continue;
      std::vector<rdf::Term> tuple = ConstantsOf(shapes[i]);
      std::vector<size_t>& open = classes_by_key[shapes[i].key];
      auto fits = std::find_if(open.begin(), open.end(), [&](size_t c) {
        return classes[c].tuples.count(tuple) == 0;
      });
      if (fits != open.end()) {
        classes[*fits].members.push_back(i);
        classes[*fits].tuples.insert(std::move(tuple));
        joined[i] = true;
        continue;
      }
      class_of[i] = static_cast<int>(classes.size());
      open.push_back(classes.size());
      classes.push_back({{i}, {std::move(tuple)}});
    }
    std::vector<ExecNodePtr> out;
    for (size_t i = 0; i < kids.size(); ++i) {
      if (joined[i]) continue;
      if (class_of[i] >= 0) {
        const Class& c = classes[static_cast<size_t>(class_of[i])];
        if (c.members.size() > 1) kids[i]->fold = FoldOf(shapes, c.members);
      }
      out.push_back(std::move(kids[i]));
    }
    kids = std::move(out);
    if (kids.size() > 1 || kids.front()->fold == nullptr) return node;
    ExecNodePtr folded = std::move(kids.front());
    folded->filters = std::move(node->filters);
    return folded;
  }

  static std::unique_ptr<UnionFold> FoldOf(const std::vector<Shape>& shapes,
                                           const std::vector<size_t>& members) {
    auto fold = std::make_unique<UnionFold>();
    const Shape& head = shapes[members.front()];
    std::vector<size_t> differing;
    for (size_t p = 0; p < head.consts.size(); ++p) {
      for (size_t m : members) {
        if (shapes[m].consts[p].At().term != head.consts[p].At().term) {
          differing.push_back(p);
          fold->positions.push_back(head.consts[p]);
          break;
        }
      }
    }
    for (size_t m : members) {
      std::vector<const rdf::Term*> tuple;
      for (size_t p : differing) {
        tuple.push_back(&shapes[m].consts[p].At().term);
      }
      fold->tuples.push_back(std::move(tuple));
      if (m != members.front()) {
        fold->absorbed.insert(fold->absorbed.end(), shapes[m].triples.begin(),
                              shapes[m].triples.end());
      }
    }
    return fold;
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
      if (!(Candidate(*kids[i]) || ConjunctiveStar(*kids[i]))) {
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
        bool host_ok = Candidate(host) || ConjunctiveStar(host);
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
