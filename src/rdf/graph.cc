#include "rdf/graph.h"

#include <algorithm>
#include <cstdint>

#include "util/hash.h"

namespace rdfrel::rdf {

Graph::Graph() = default;

void Graph::Add(const Triple& triple) {
  triples_.push_back(dict_.EncodeTriple(triple));
}

void Graph::AddEncoded(const EncodedTriple& et) { triples_.push_back(et); }

namespace {
std::vector<uint64_t> DistinctInOrder(const std::vector<EncodedTriple>& ts,
                                      uint64_t EncodedTriple::*field) {
  std::vector<uint64_t> out;
  std::unordered_set<uint64_t> seen;
  out.reserve(ts.size() / 4 + 1);
  for (const auto& t : ts) {
    uint64_t v = t.*field;
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

TripleGroups GroupByField(const std::vector<EncodedTriple>& ts,
                          uint64_t EncodedTriple::*field) {
  // Ids are dense, so a group is found by indexing an array with the id;
  // counting first sizes every group's index list exactly.
  uint64_t max_id = 0;
  for (const auto& t : ts) max_id = std::max(max_id, t.*field);
  std::vector<size_t> group_of(max_id + 1, SIZE_MAX);
  std::vector<size_t> counts;
  TripleGroups out;
  for (const auto& t : ts) {
    size_t& g = group_of[t.*field];
    if (g == SIZE_MAX) {
      g = out.size();
      out.push_back({t.*field, {}});
      counts.push_back(0);
    }
    ++counts[g];
  }
  for (size_t g = 0; g < out.size(); ++g) out[g].second.reserve(counts[g]);
  for (size_t i = 0; i < ts.size(); ++i) {
    out[group_of[ts[i].*field]].second.push_back(i);
  }
  return out;
}
}  // namespace

std::vector<uint64_t> Graph::DistinctSubjects() const {
  return DistinctInOrder(triples_, &EncodedTriple::subject);
}

std::vector<uint64_t> Graph::DistinctObjects() const {
  return DistinctInOrder(triples_, &EncodedTriple::object);
}

std::vector<uint64_t> Graph::DistinctPredicates() const {
  return DistinctInOrder(triples_, &EncodedTriple::predicate);
}

std::vector<EncodedTriple> Graph::DistinctTriples() const {
  struct TripleHash {
    size_t operator()(const EncodedTriple& t) const {
      return static_cast<size_t>(
          HashCombine(HashCombine(Mix64(t.subject), t.predicate), t.object));
    }
  };
  std::vector<EncodedTriple> out;
  std::unordered_set<EncodedTriple, TripleHash> seen;
  out.reserve(triples_.size());
  for (const auto& t : triples_) {
    if (seen.insert(t).second) out.push_back(t);
  }
  return out;
}

TripleGroups Graph::GroupBySubject() const {
  return GroupByField(triples_, &EncodedTriple::subject);
}

TripleGroups Graph::GroupByObject() const {
  return GroupByField(triples_, &EncodedTriple::object);
}

Result<std::vector<Triple>> Graph::DecodeAll() const {
  std::vector<Triple> out;
  out.reserve(triples_.size());
  for (const auto& et : triples_) {
    RDFREL_ASSIGN_OR_RETURN(Triple t, dict_.DecodeTriple(et));
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace rdfrel::rdf
