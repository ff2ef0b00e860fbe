#ifndef RDFREL_OPT_COST_MODEL_H_
#define RDFREL_OPT_COST_MODEL_H_

/// \file cost_model.h
/// The Triple Method Cost TMC(t, m, S) of Definition 3.1, reproducing the
/// paper's worked example: an exact-lookup cost when the entry is a tracked
/// top-k constant, the entry fan-out otherwise, and the full relation size
/// for a scan. The fan-out is the constant predicate's own
/// (count(p) / distinct entries of p) when the triple has one, and the
/// graph-wide average per subject/object when its predicate is a variable.

#include "opt/access_method.h"
#include "opt/statistics.h"
#include "rdf/dictionary.h"

namespace rdfrel::opt {

class CostModel {
 public:
  CostModel(const Statistics* stats, const rdf::Dictionary* dict)
      : stats_(stats), dict_(dict) {}

  /// TMC(t, m, S). Constants not present in the dictionary cost ~0 (they
  /// match nothing).
  double Tmc(const sparql::TriplePattern& t, AccessMethod m) const;

 private:
  const Statistics* stats_;
  const rdf::Dictionary* dict_;
};

}  // namespace rdfrel::opt

#endif  // RDFREL_OPT_COST_MODEL_H_
