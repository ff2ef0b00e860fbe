#include "schema/interference_graph.h"

#include <algorithm>

namespace rdfrel::schema {

const std::unordered_set<uint64_t> InterferenceGraph::kEmpty;

void InterferenceGraph::AddNode(uint64_t predicate) { adj_[predicate]; }

void InterferenceGraph::AddEntity(const std::vector<uint64_t>& predicates) {
  // Dedup within the entity first.
  std::vector<uint64_t> uniq = predicates;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  for (uint64_t p : uniq) {
    adj_[p];
    freq_[p] += 1;
  }
  for (size_t i = 0; i < uniq.size(); ++i) {
    for (size_t j = i + 1; j < uniq.size(); ++j) {
      if (adj_[uniq[i]].insert(uniq[j]).second) {
        adj_[uniq[j]].insert(uniq[i]);
        ++num_edges_;
      }
    }
  }
}

bool InterferenceGraph::HasEdge(uint64_t a, uint64_t b) const {
  auto it = adj_.find(a);
  return it != adj_.end() && it->second.count(b) > 0;
}

size_t InterferenceGraph::Degree(uint64_t predicate) const {
  auto it = adj_.find(predicate);
  return it == adj_.end() ? 0 : it->second.size();
}

uint64_t InterferenceGraph::Frequency(uint64_t predicate) const {
  auto it = freq_.find(predicate);
  return it == freq_.end() ? 0 : it->second;
}

std::vector<uint64_t> InterferenceGraph::Nodes() const {
  std::vector<uint64_t> out;
  out.reserve(adj_.size());
  for (const auto& [n, nbrs] : adj_) out.push_back(n);
  return out;
}

const std::unordered_set<uint64_t>& InterferenceGraph::Neighbors(
    uint64_t predicate) const {
  auto it = adj_.find(predicate);
  return it == adj_.end() ? kEmpty : it->second;
}

InterferenceGraph InterferenceGraph::FromGroups(
    const rdf::TripleGroups& groups,
    const std::vector<rdf::EncodedTriple>& triples) {
  InterferenceGraph g;
  std::vector<uint64_t> preds;
  for (const auto& [entity, idxs] : groups) {
    preds.clear();
    preds.reserve(idxs.size());
    for (size_t i : idxs) preds.push_back(triples[i].predicate);
    g.AddEntity(preds);
  }
  return g;
}

InterferenceGraph InterferenceGraph::FromGraphBySubject(const rdf::Graph& g) {
  return FromGroups(g.GroupBySubject(), g.triples());
}

InterferenceGraph InterferenceGraph::FromGraphByObject(const rdf::Graph& g) {
  return FromGroups(g.GroupByObject(), g.triples());
}

}  // namespace rdfrel::schema
