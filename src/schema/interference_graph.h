#ifndef RDFREL_SCHEMA_INTERFERENCE_GRAPH_H_
#define RDFREL_SCHEMA_INTERFERENCE_GRAPH_H_

/// \file interference_graph.h
/// The predicate co-occurrence (interference) graph of paper Definition 2.3:
/// nodes are predicates, an edge joins two predicates that co-occur on some
/// entity. Two predicates may share a column iff they are NOT adjacent.

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/graph.h"

namespace rdfrel::schema {

class InterferenceGraph {
 public:
  InterferenceGraph() = default;

  /// Registers one entity's predicate set: adds all nodes and the clique of
  /// pairwise interference edges, and bumps each predicate's frequency.
  void AddEntity(const std::vector<uint64_t>& predicates);

  /// Ensures a node exists even with no co-occurrences.
  void AddNode(uint64_t predicate);

  bool HasEdge(uint64_t a, uint64_t b) const;
  size_t num_nodes() const { return adj_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Degree of a node (0 when absent).
  size_t Degree(uint64_t predicate) const;
  /// Occurrence count accumulated via AddEntity.
  uint64_t Frequency(uint64_t predicate) const;

  /// Node ids, unordered.
  std::vector<uint64_t> Nodes() const;
  /// Neighbors of a node (empty when absent).
  const std::unordered_set<uint64_t>& Neighbors(uint64_t predicate) const;

  /// Builds the interference graph of one grouping of \p triples: each
  /// group is one entity's triples (Graph::GroupBySubject for the direct
  /// graph, Graph::GroupByObject for the reverse one).
  static InterferenceGraph FromGroups(
      const rdf::TripleGroups& groups,
      const std::vector<rdf::EncodedTriple>& triples);
  /// Builds the *direct* interference graph of \p g (predicates co-occurring
  /// per subject).
  static InterferenceGraph FromGraphBySubject(const rdf::Graph& g);
  /// Builds the *reverse* interference graph (co-occurrence per object).
  static InterferenceGraph FromGraphByObject(const rdf::Graph& g);

 private:
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> adj_;
  std::unordered_map<uint64_t, uint64_t> freq_;
  size_t num_edges_ = 0;
  static const std::unordered_set<uint64_t> kEmpty;
};

}  // namespace rdfrel::schema

#endif  // RDFREL_SCHEMA_INTERFERENCE_GRAPH_H_
