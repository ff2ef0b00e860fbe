#ifndef RDFREL_TESTS_REFERENCE_WORKLOAD_CHECK_H_
#define RDFREL_TESTS_REFERENCE_WORKLOAD_CHECK_H_

/// \file workload_check.h
/// The workload-against-reference check shared by the reference tests:
/// every query of a workload on all three backends — DB2RDF, triple store,
/// predicate store — against the engine-independent evaluator.

#include "benchdata/workload.h"

namespace rdfrel::reference {

/// Loads a copy of \p w's graph into each backend and expects every
/// query's answer on every backend to match the reference. Queries the
/// reference does not support (property paths) are skipped; the count is
/// printed and recorded as the `skipped` test property. With
/// \p allow_unsupported, a backend may decline a query as kUnsupported
/// (e.g. the predicate store's UNION limit on a variable predicate over a
/// graph with many predicates); such pairs are counted, not compared.
void ExpectWorkloadMatchesReference(const benchdata::Workload& w,
                                    bool allow_unsupported = false);

}  // namespace rdfrel::reference

#endif  // RDFREL_TESTS_REFERENCE_WORKLOAD_CHECK_H_
