#ifndef RDFREL_RDF_GRAPH_H_
#define RDFREL_RDF_GRAPH_H_

/// \file graph.h
/// An in-memory, dictionary-encoded triple container. This is the neutral
/// exchange format between generators, loaders and statistics: backends shred
/// a Graph into their relational layout.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "util/status.h"

namespace rdfrel::rdf {

/// Container of encoded triples plus the owning dictionary.
class Graph {
 public:
  Graph();

  /// Adds a triple (encoding its terms). Duplicate triples are kept; RDF
  /// graphs are sets, but keeping duplicates lets loaders decide dedup policy.
  void Add(const Triple& triple);

  /// Adds an already-encoded triple (ids must come from dictionary()).
  void AddEncoded(const EncodedTriple& et);

  const std::vector<EncodedTriple>& triples() const { return triples_; }
  Dictionary& dictionary() { return dict_; }
  const Dictionary& dictionary() const { return dict_; }

  uint64_t size() const { return triples_.size(); }

  /// Distinct subject ids in insertion order of first occurrence.
  std::vector<uint64_t> DistinctSubjects() const;
  /// Distinct object ids in insertion order of first occurrence.
  std::vector<uint64_t> DistinctObjects() const;
  /// Distinct predicate ids in insertion order of first occurrence.
  std::vector<uint64_t> DistinctPredicates() const;
  /// Distinct triples in insertion order of first occurrence, compared on
  /// the exact (subject, predicate, object) ids.
  std::vector<EncodedTriple> DistinctTriples() const;

  /// Groups triple indices by subject id (order of first occurrence).
  std::vector<std::pair<uint64_t, std::vector<size_t>>> GroupBySubject() const;
  /// Groups triple indices by object id (order of first occurrence).
  std::vector<std::pair<uint64_t, std::vector<size_t>>> GroupByObject() const;

  /// Decodes all triples (test/debug helper; O(n) allocations).
  Result<std::vector<Triple>> DecodeAll() const;

 private:
  Dictionary dict_;
  std::vector<EncodedTriple> triples_;
};

}  // namespace rdfrel::rdf

#endif  // RDFREL_RDF_GRAPH_H_
