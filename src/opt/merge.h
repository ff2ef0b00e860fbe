#ifndef RDFREL_OPT_MERGE_H_
#define RDFREL_OPT_MERGE_H_

/// \file merge.h
/// The node-merging step of the translator (paper §3.2.1): triples that
/// target the same entity with the same access method are folded into a
/// single star access (one primary-table lookup), when both the structural
/// constraints (same entity, same method, no spilled predicates) and the
/// semantic constraints (ANDMergeable / ORMergeable / OPTMergeable,
/// Definitions 3.9-3.11) hold.

#include <functional>

#include "opt/data_flow_graph.h"
#include "opt/exec_tree.h"

namespace rdfrel::opt {

/// Answers "may this predicate participate in a merged star?" — false when
/// the predicate is involved in spills for the method's direction (acs ->
/// direct/DPH, aco -> reverse/RPH). Variable predicates are never mergeable.
using SpillCheck =
    std::function<bool(const sparql::TriplePattern& t, AccessMethod m)>;

/// Definitions 3.9-3.11 over the query pattern tree.
bool AndMergeable(const QueryTreeIndex& tree, int t1, int t2);
bool OrMergeable(const QueryTreeIndex& tree, int t1, int t2);
/// \p t_opt is the higher-order (optional) triple.
bool OptMergeable(const QueryTreeIndex& tree, int t_main, int t_opt);

/// Rewrites the execution tree in place, merging mergeable triple nodes
/// into kStar nodes. \p has_spill returns true when the triple's predicate
/// is spill-involved (such triples are never merged). An OR that no star
/// absorbs has its same-shape branches folded (UnionFold, exec_tree.h).
ExecNodePtr MergeExecTree(ExecNodePtr root, const QueryTreeIndex& tree,
                          const SpillCheck& has_spill);

}  // namespace rdfrel::opt

#endif  // RDFREL_OPT_MERGE_H_
