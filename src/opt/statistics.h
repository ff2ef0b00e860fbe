#ifndef RDFREL_OPT_STATISTICS_H_
#define RDFREL_OPT_STATISTICS_H_

/// \file statistics.h
/// Dataset statistics S for the optimizer (paper §3.1, input 2): total
/// triples, average triples per subject/object, per-predicate counts and
/// distinct subject/object counts, and exact counts for the top-k most
/// frequent subjects/objects (the paper's "top-k URIs or literals in terms
/// of number of triples they appear in").

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rdf/graph.h"

namespace rdfrel::opt {

class Statistics {
 public:
  Statistics() = default;

  /// Gathers statistics over \p graph, keeping exact counts for the top
  /// \p top_k subjects and objects (0 keeps every count — exact stats).
  static Statistics FromGraph(const rdf::Graph& graph, size_t top_k = 1000);

  uint64_t total_triples() const { return total_triples_; }
  double avg_triples_per_subject() const { return avg_per_subject_; }
  double avg_triples_per_object() const { return avg_per_object_; }
  uint64_t distinct_subjects() const { return distinct_subjects_; }
  uint64_t distinct_objects() const { return distinct_objects_; }

  /// Estimated number of triples with subject \p id: exact when the id is a
  /// tracked top-k subject, otherwise \p untracked (the caller's fan-out).
  double EstimateBySubject(uint64_t id, double untracked) const;
  /// Estimated number of triples with object \p id.
  double EstimateByObject(uint64_t id, double untracked) const;
  /// Exact triple count for predicate \p id (0 when unseen).
  uint64_t CountByPredicate(uint64_t id) const;

  /// Average triples per distinct subject of predicate \p id:
  /// count(p) / distinct_subjects(p). Falls back to the graph-wide average
  /// when \p id was unseen at load or its count has dropped to 0.
  double SubjectFanout(uint64_t id) const;
  /// count(p) / distinct_objects(p), with the same fallback.
  double ObjectFanout(uint64_t id) const;

  /// Incremental maintenance on store writes. Totals, per-predicate counts
  /// and *tracked* top-k subject/object counts stay exact; distinct counts
  /// (graph-wide and per predicate) and averages keep their load-time
  /// values (estimates), so a predicate's fan-out follows its count. Callers
  /// serialize writes (RdfStore holds its writer lock).
  void AddTriple(const rdf::EncodedTriple& t);
  void RemoveTriple(const rdf::EncodedTriple& t);

  /// Raw internals, exposed for snapshot serialization.
  const std::unordered_map<uint64_t, uint64_t>& top_subject_counts() const {
    return top_subjects_;
  }
  const std::unordered_map<uint64_t, uint64_t>& top_object_counts() const {
    return top_objects_;
  }
  const std::unordered_map<uint64_t, uint64_t>& predicate_count_map() const {
    return predicate_counts_;
  }
  const std::unordered_map<uint64_t, uint64_t>&
  predicate_distinct_subject_map() const {
    return predicate_distinct_subjects_;
  }
  const std::unordered_map<uint64_t, uint64_t>&
  predicate_distinct_object_map() const {
    return predicate_distinct_objects_;
  }

  /// Rebuilds a Statistics from snapshot fields (inverse of the accessors).
  static Statistics FromParts(
      uint64_t total_triples, uint64_t distinct_subjects,
      uint64_t distinct_objects, double avg_per_subject, double avg_per_object,
      std::unordered_map<uint64_t, uint64_t> top_subjects,
      std::unordered_map<uint64_t, uint64_t> top_objects,
      std::unordered_map<uint64_t, uint64_t> predicate_counts,
      std::unordered_map<uint64_t, uint64_t> predicate_distinct_subjects,
      std::unordered_map<uint64_t, uint64_t> predicate_distinct_objects);

 private:
  uint64_t total_triples_ = 0;
  uint64_t distinct_subjects_ = 0;
  uint64_t distinct_objects_ = 0;
  double avg_per_subject_ = 0;
  double avg_per_object_ = 0;
  std::unordered_map<uint64_t, uint64_t> top_subjects_;
  std::unordered_map<uint64_t, uint64_t> top_objects_;
  std::unordered_map<uint64_t, uint64_t> predicate_counts_;
  std::unordered_map<uint64_t, uint64_t> predicate_distinct_subjects_;
  std::unordered_map<uint64_t, uint64_t> predicate_distinct_objects_;
};

}  // namespace rdfrel::opt

#endif  // RDFREL_OPT_STATISTICS_H_
