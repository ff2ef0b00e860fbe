#include "opt/exec_tree.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace rdfrel::opt {

const sparql::TermOrVar& ExecNode::Entry() const {
  static const sparql::TermOrVar kNone;
  const sparql::TriplePattern* t =
      kind == ExecKind::kTriple
          ? triple
          : (kind == ExecKind::kStar && !star_triples.empty()
                 ? star_triples.front()
                 : nullptr);
  if (t == nullptr) return kNone;
  return method == AccessMethod::kAco ? t->object : t->subject;
}

std::string ExecNode::ToString(int indent) const {
  std::string out;
  if (fold != nullptr) {
    out = std::string(static_cast<size_t>(indent) * 2, ' ') + "FOLD[" +
          std::to_string(fold->tuples.size()) + " branches](";
    for (size_t i = 0; i < fold->positions.size(); ++i) {
      if (i) out += ", ";
      const FoldPosition& pos = fold->positions[i];
      out += "t" + std::to_string(pos.triple->id) +
             (pos.object ? ".o" : ".s");
    }
    out += ")\n";
    ++indent;
  }
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  switch (kind) {
    case ExecKind::kTriple:
      out += pad + "(t" + std::to_string(triple->id) + ", " +
            AccessMethodToString(method) + ")\n";
      break;
    case ExecKind::kStar: {
      out += pad + "STAR[" +
            (star_semantics == StarSemantics::kConjunctive ? "AND" : "OR");
      out += ", " + std::string(AccessMethodToString(method)) + "](";
      for (size_t i = 0; i < star_triples.size(); ++i) {
        if (i) out += ", ";
        out += "t";
        out += std::to_string(star_triples[i]->id);
        if (star_optional[i]) out += "?";
      }
      out += ")\n";
      break;
    }
    case ExecKind::kAnd:
      out += pad + "AND\n";
      break;
    case ExecKind::kOr:
      out += pad + "OR\n";
      break;
    case ExecKind::kOptional:
      out += pad + "OPTIONAL\n";
      break;
  }
  for (const auto& c : children) out += c->ToString(indent + 1);
  for (const auto* f : filters) {
    out += pad + "  FILTER " + f->ToString() + "\n";
  }
  return out;
}

ExecNodePtr MakeTripleNode(const sparql::TriplePattern* t, AccessMethod m) {
  auto n = std::make_unique<ExecNode>();
  n->kind = ExecKind::kTriple;
  n->triple = t;
  n->method = m;
  return n;
}

namespace {

/// A fusible sub-plan with its data-flow metadata.
struct Unit {
  ExecNodePtr tree;
  int rank = 0;  // min flow rank across the unit's triples
  std::set<std::string> produced;
  std::set<std::string> required;  // not satisfied within the unit
  bool optional = false;
};

class Builder {
 public:
  Builder(const FlowTree& flow, bool late_fusing)
      : flow_(flow), late_fusing_(late_fusing) {}

  Result<Unit> Build(const sparql::Pattern& p) {
    switch (p.kind) {
      case sparql::PatternKind::kTriple:
        return BuildTriple(p);
      case sparql::PatternKind::kAnd:
        return BuildAnd(p);
      case sparql::PatternKind::kOr:
        return BuildOr(p);
      case sparql::PatternKind::kOptional: {
        RDFREL_CHECK(p.children.size() == 1);
        RDFREL_ASSIGN_OR_RETURN(Unit u, Build(*p.children[0]));
        u.optional = true;
        return u;
      }
    }
    return Status::Internal("unhandled pattern kind");
  }

 private:
  Result<Unit> BuildTriple(const sparql::Pattern& p) {
    const FlowChoice& choice = flow_.ChoiceFor(p.triple.id);
    Unit u;
    u.tree = MakeTripleNode(&p.triple, choice.method);
    u.rank = choice.rank;
    for (const auto& v : ProducedVars(p.triple, choice.method)) {
      u.produced.insert(v);
    }
    for (const auto& v : RequiredVars(p.triple, choice.method)) {
      u.required.insert(v);
    }
    return u;
  }

  Result<Unit> BuildOr(const sparql::Pattern& p) {
    Unit u;
    auto node = std::make_unique<ExecNode>();
    node->kind = ExecKind::kOr;
    u.rank = INT32_MAX;
    bool first = true;
    for (const auto& c : p.children) {
      RDFREL_ASSIGN_OR_RETURN(Unit cu, Build(*c));
      u.rank = std::min(u.rank, cu.rank);
      // Produced: variables bound in EVERY branch (safe for consumers).
      if (first) {
        u.produced = cu.produced;
        first = false;
      } else {
        std::set<std::string> inter;
        std::set_intersection(u.produced.begin(), u.produced.end(),
                              cu.produced.begin(), cu.produced.end(),
                              std::inserter(inter, inter.begin()));
        u.produced = std::move(inter);
      }
      u.required.insert(cu.required.begin(), cu.required.end());
      node->children.push_back(std::move(cu.tree));
    }
    u.tree = std::move(node);
    return u;
  }

  Result<Unit> BuildAnd(const sparql::Pattern& p) {
    std::vector<Unit> units;
    for (const auto& c : p.children) {
      RDFREL_ASSIGN_OR_RETURN(Unit u, Build(*c));
      units.push_back(std::move(u));
    }
    if (units.empty()) {
      return Status::InvalidArgument("empty AND pattern");
    }

    // Choose the fusion order.
    std::vector<Unit> ordered;
    std::set<std::string> bound_mandatory;
    std::set<std::string> bound_any;
    auto satisfied = [](const std::set<std::string>& req,
                        const std::set<std::string>& bound) {
      return std::all_of(req.begin(), req.end(), [&](const std::string& v) {
        return bound.count(v) > 0;
      });
    };
    while (!units.empty()) {
      int pick = -1;
      if (!late_fusing_) {
        pick = 0;  // parse order (ablation)
      } else {
        // 1. mandatory units whose requirements are met by mandatory vars;
        // 2. optional units whose requirements are met by any vars;
        // 3. fallback: the lowest-rank unit (cross product).
        for (int pass = 0; pass < 2 && pick < 0; ++pass) {
          for (size_t i = 0; i < units.size(); ++i) {
            const Unit& u = units[i];
            if (pass == 0 && u.optional) continue;
            if (pass == 1 && !u.optional) continue;
            const auto& bound = u.optional ? bound_any : bound_mandatory;
            if (!satisfied(u.required, bound)) continue;
            if (pick < 0 ||
                u.rank < units[static_cast<size_t>(pick)].rank) {
              pick = static_cast<int>(i);
            }
          }
        }
        if (pick < 0) {
          for (size_t i = 0; i < units.size(); ++i) {
            if (pick < 0 ||
                units[i].rank < units[static_cast<size_t>(pick)].rank) {
              pick = static_cast<int>(i);
            }
          }
        }
      }
      Unit u = std::move(units[static_cast<size_t>(pick)]);
      units.erase(units.begin() + pick);
      bound_any.insert(u.produced.begin(), u.produced.end());
      if (!u.optional) {
        bound_mandatory.insert(u.produced.begin(), u.produced.end());
      }
      ordered.push_back(std::move(u));
    }

    // Fold into the AND node; wrap optional units.
    Unit result;
    result.rank = INT32_MAX;
    auto node = std::make_unique<ExecNode>();
    node->kind = ExecKind::kAnd;
    for (auto& u : ordered) {
      result.rank = std::min(result.rank, u.rank);
      if (!u.optional) {
        result.produced.insert(u.produced.begin(), u.produced.end());
      }
      for (const auto& v : u.required) result.required.insert(v);
      ExecNodePtr child = std::move(u.tree);
      if (u.optional) {
        auto opt = std::make_unique<ExecNode>();
        opt->kind = ExecKind::kOptional;
        opt->children.push_back(std::move(child));
        child = std::move(opt);
      }
      node->children.push_back(std::move(child));
    }
    // External requirements: those not produced within this AND.
    for (auto it = result.required.begin(); it != result.required.end();) {
      if (result.produced.count(*it)) {
        it = result.required.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& f : p.filters) node->filters.push_back(f.get());
    // Single-child AND without filters collapses.
    if (node->children.size() == 1 && node->filters.empty()) {
      result.tree = std::move(node->children.front());
    } else {
      result.tree = std::move(node);
    }
    return result;
  }

  const FlowTree& flow_;
  bool late_fusing_;
};

}  // namespace

Result<ExecNodePtr> BuildExecTree(const sparql::Query& query,
                                  const FlowTree& flow, bool late_fusing) {
  if (!query.where) return Status::InvalidArgument("query has no pattern");
  Builder b(flow, late_fusing);
  RDFREL_ASSIGN_OR_RETURN(Unit root, b.Build(*query.where));
  if (root.optional) {
    return Status::InvalidArgument("top-level OPTIONAL is not a query");
  }
  return std::move(root.tree);
}

}  // namespace rdfrel::opt
