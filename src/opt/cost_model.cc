#include "opt/cost_model.h"

#include <algorithm>

namespace rdfrel::opt {

double CostModel::Tmc(const sparql::TriplePattern& t, AccessMethod m) const {
  const double total = static_cast<double>(stats_->total_triples());
  const bool const_predicate = !t.predicate.is_var;
  const uint64_t pid =
      const_predicate ? dict_->Lookup(t.predicate.term) : uint64_t{0};
  auto refine_by_predicate = [&](double base) {
    // A constant predicate cannot match more triples than it has.
    if (const_predicate) {
      double pcount = static_cast<double>(stats_->CountByPredicate(pid));
      return std::min(base, pcount);
    }
    return base;
  };
  switch (m) {
    case AccessMethod::kScan:
      return total;
    case AccessMethod::kAcs: {
      // An entry without an exact count costs the predicate's subject
      // fan-out when the predicate is known, else the graph-wide average.
      const double fanout = const_predicate
                                ? stats_->SubjectFanout(pid)
                                : stats_->avg_triples_per_subject();
      if (!t.subject.is_var) {
        uint64_t id = dict_->Lookup(t.subject.term);
        if (id == 0) return 0.5;  // unknown constant: matches nothing
        return refine_by_predicate(stats_->EstimateBySubject(id, fanout));
      }
      return refine_by_predicate(fanout);
    }
    case AccessMethod::kAco: {
      const double fanout = const_predicate
                                ? stats_->ObjectFanout(pid)
                                : stats_->avg_triples_per_object();
      if (!t.object.is_var) {
        uint64_t id = dict_->Lookup(t.object.term);
        if (id == 0) return 0.5;
        return refine_by_predicate(stats_->EstimateByObject(id, fanout));
      }
      return refine_by_predicate(fanout);
    }
  }
  return total;
}

}  // namespace rdfrel::opt
