#ifndef RDFREL_OPT_EXEC_TREE_H_
#define RDFREL_OPT_EXEC_TREE_H_

/// \file exec_tree.h
/// The Query Plan Builder's execution tree (paper §3.1.2): a
/// storage-independent plan that weaves triple evaluation in optimal-flow
/// order while respecting the query's pattern structure (associativity of
/// AND/OR/OPTIONAL). Built by ExecTreeBuilder, then refined by the merge
/// step (merge.h) into the query plan tree consumed by the SQL translator.

#include <memory>
#include <string>
#include <vector>

#include "opt/flow_tree.h"
#include "sparql/ast.h"
#include "util/status.h"

namespace rdfrel::opt {

enum class ExecKind {
  kTriple,    ///< single (triple, method) access
  kAnd,       ///< ordered join chain of children
  kOr,        ///< union of children
  kOptional,  ///< left-outer extension (single child)
  kStar,      ///< merged star access (post-merge only)
};

/// Semantics of a merged star node.
enum class StarSemantics {
  kConjunctive,  ///< every (non-optional) predicate must be present
  kDisjunctive,  ///< at least one predicate present (OR merge)
};

struct ExecNode;
using ExecNodePtr = std::unique_ptr<ExecNode>;

/// A constant subject (\p object false) or object of a triple pattern.
struct FoldPosition {
  const sparql::TriplePattern* triple = nullptr;
  bool object = false;

  const sparql::TermOrVar& At() const {
    return object ? triple->object : triple->subject;
  }
};

/// UNION folding (DESIGN.md §1 item 4): a subtree standing for several
/// UNION branches that are the same plan up to constant subjects/objects.
/// The subtree is the first branch's; each differing constant position is
/// translated as a hidden column, and a solution is kept iff the hidden
/// columns' values equal one of \p tuples. The tuples are pairwise
/// distinct, so each solution matches exactly one folded branch.
struct UnionFold {
  /// The differing positions, in triples of the folded subtree.
  std::vector<FoldPosition> positions;
  /// One constant tuple per folded branch (the first included), parallel
  /// to \p positions. Terms are borrowed from the Query.
  std::vector<std::vector<const rdf::Term*>> tuples;
  /// The other folded branches' triples, answered by this subtree.
  std::vector<const sparql::TriplePattern*> absorbed;
};

/// A node of the execution / query-plan tree. Triple patterns are borrowed
/// from the Query, which must outlive the tree.
struct ExecNode {
  ExecKind kind;

  // kTriple
  const sparql::TriplePattern* triple = nullptr;
  AccessMethod method = AccessMethod::kScan;

  // kStar — a single primary-table access answering several triples that
  // share the entry (paper §3.2.1).
  std::vector<const sparql::TriplePattern*> star_triples;
  std::vector<bool> star_optional;  ///< parallel: OPT-merged members
  StarSemantics star_semantics = StarSemantics::kConjunctive;

  // kAnd / kOr / kOptional
  std::vector<ExecNodePtr> children;

  // FILTERs to apply once this node's bindings exist (borrowed).
  std::vector<const sparql::FilterExpr*> filters;

  /// Set when this subtree answers several folded UNION branches.
  std::unique_ptr<UnionFold> fold;

  /// The entry component shared by this node's access (subject for acs,
  /// object for aco); meaningful for kTriple and kStar.
  const sparql::TermOrVar& Entry() const;

  std::string ToString(int indent = 0) const;
};

ExecNodePtr MakeTripleNode(const sparql::TriplePattern* t, AccessMethod m);

/// Builds the execution tree for \p query given the optimal flow \p flow.
///
/// This implements the ExecTree recursion of Figure 10 with a concrete
/// late-fusing policy: within each AND pattern, sub-plans ("units") are
/// fused in optimal-flow order among those whose required variables are
/// already bound; OPTIONAL units are deferred until no mandatory unit is
/// fusible, and variables bound only optionally never enable a mandatory
/// unit (matching the data-flow guards of Definition 3.8).
///
/// When \p late_fusing is false, units are fused in plain parse order
/// (the ablation baseline of DESIGN.md).
Result<ExecNodePtr> BuildExecTree(const sparql::Query& query,
                                  const FlowTree& flow,
                                  bool late_fusing = true);

}  // namespace rdfrel::opt

#endif  // RDFREL_OPT_EXEC_TREE_H_
