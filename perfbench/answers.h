#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

/// \file answers.h
/// The answer gate: an order-insensitive signature of a query result, and
/// the reference signatures computed on a TripleStoreBackend loaded from
/// the same graph.
///
/// A signature is taken over the SPARQL-results-JSON serialization: the
/// head (variables) plus the multiset of solution objects. The endpoint
/// streams exactly the bytes `serve::SerializeResultSet` produces, so an
/// HTTP body and an in-process ResultSet of the same solutions get the
/// same signature.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "store/result_set.h"

namespace perfbench {

struct Answer {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Answer&) const = default;
};

/// Signature of a SPARQL-results-JSON document; nullopt when it does not
/// have the `{"head":...,"results":{"bindings":[...]}}` shape.
std::optional<Answer> AnswerOfJson(std::string_view body);

/// Signature of a decoded result.
Answer AnswerOf(const rdfrel::store::ResultSet& rs);

struct ReferenceJob {
  const rdfrel::rdf::Graph* graph = nullptr;
  std::vector<std::string> queries;
};

/// Answers every job's queries on a TripleStoreBackend loaded from a copy
/// of its graph. Runs in a forked child so the reference stores never
/// count toward the workload's peak RSS; call it before this process
/// starts any thread. nullopt when a reference query fails.
std::optional<std::vector<std::vector<Answer>>> ReferenceAnswers(
    const std::vector<ReferenceJob>& jobs);

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
