#include "opt/statistics.h"

#include <algorithm>

namespace rdfrel::opt {

namespace {

/// Each predicate's number of distinct subjects and of distinct objects,
/// in O(triples + ids): dictionary ids are dense, so the triples are
/// bucketed by predicate, and a per-id stamp marks the terms already
/// counted for the current predicate.
void CountDistinctPerPredicate(
    const std::vector<rdf::EncodedTriple>& triples,
    std::unordered_map<uint64_t, uint64_t>* subjects,
    std::unordered_map<uint64_t, uint64_t>* objects) {
  uint64_t max_id = 0;
  for (const auto& t : triples) {
    max_id = std::max({max_id, t.subject, t.predicate, t.object});
  }
  // slot[p] numbers the predicates 1..n in first-seen order.
  std::vector<uint32_t> slot(max_id + 1, 0);
  std::vector<uint64_t> predicates;
  std::vector<size_t> start{0};
  for (const auto& t : triples) {
    if (slot[t.predicate] == 0) {
      predicates.push_back(t.predicate);
      slot[t.predicate] = static_cast<uint32_t>(predicates.size());
      start.push_back(0);
    }
    ++start[slot[t.predicate]];
  }
  for (size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  // Counting sort: bucket k - 1 is order[start[k - 1], start[k]).
  std::vector<uint32_t> order(triples.size());
  std::vector<size_t> next(start.begin(), start.end() - 1);
  for (size_t i = 0; i < triples.size(); ++i) {
    order[next[slot[triples[i].predicate] - 1]++] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> seen_s(max_id + 1, 0);
  std::vector<uint32_t> seen_o(max_id + 1, 0);
  for (uint32_t k = 1; k <= predicates.size(); ++k) {
    uint64_t ds = 0;
    uint64_t dobj = 0;
    for (size_t j = start[k - 1]; j < start[k]; ++j) {
      const rdf::EncodedTriple& t = triples[order[j]];
      if (seen_s[t.subject] != k) {
        seen_s[t.subject] = k;
        ++ds;
      }
      if (seen_o[t.object] != k) {
        seen_o[t.object] = k;
        ++dobj;
      }
    }
    subjects->emplace(predicates[k - 1], ds);
    objects->emplace(predicates[k - 1], dobj);
  }
}

/// count / distinct[id], or \p fallback when \p id has no count or no
/// recorded distinct count.
double Fanout(uint64_t count,
              const std::unordered_map<uint64_t, uint64_t>& distinct,
              uint64_t id, double fallback) {
  auto it = distinct.find(id);
  if (count == 0 || it == distinct.end() || it->second == 0) return fallback;
  return static_cast<double>(count) / static_cast<double>(it->second);
}

}  // namespace

Statistics Statistics::FromGraph(const rdf::Graph& graph, size_t top_k) {
  Statistics s;
  s.total_triples_ = graph.size();
  std::unordered_map<uint64_t, uint64_t> by_subject;
  std::unordered_map<uint64_t, uint64_t> by_object;
  for (const auto& t : graph.triples()) {
    by_subject[t.subject] += 1;
    by_object[t.object] += 1;
    s.predicate_counts_[t.predicate] += 1;
  }
  s.distinct_subjects_ = by_subject.size();
  s.distinct_objects_ = by_object.size();
  s.avg_per_subject_ =
      by_subject.empty()
          ? 0
          : static_cast<double>(s.total_triples_) /
                static_cast<double>(by_subject.size());
  s.avg_per_object_ =
      by_object.empty()
          ? 0
          : static_cast<double>(s.total_triples_) /
                static_cast<double>(by_object.size());

  CountDistinctPerPredicate(graph.triples(), &s.predicate_distinct_subjects_,
                            &s.predicate_distinct_objects_);

  auto take_top = [top_k](std::unordered_map<uint64_t, uint64_t>& all)
      -> std::unordered_map<uint64_t, uint64_t> {
    if (top_k == 0 || all.size() <= top_k) return std::move(all);
    std::vector<std::pair<uint64_t, uint64_t>> items(all.begin(), all.end());
    std::nth_element(items.begin(),
                     items.begin() + static_cast<std::ptrdiff_t>(top_k),
                     items.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    items.resize(top_k);
    return {items.begin(), items.end()};
  };
  s.top_subjects_ = take_top(by_subject);
  s.top_objects_ = take_top(by_object);
  return s;
}

double Statistics::EstimateBySubject(uint64_t id, double untracked) const {
  auto it = top_subjects_.find(id);
  if (it != top_subjects_.end()) return static_cast<double>(it->second);
  // Not in the top-k: bounded above by the smallest tracked count, but the
  // fan-out is the classic estimate and what the paper's example uses.
  return untracked;
}

double Statistics::EstimateByObject(uint64_t id, double untracked) const {
  auto it = top_objects_.find(id);
  if (it != top_objects_.end()) return static_cast<double>(it->second);
  return untracked;
}

void Statistics::AddTriple(const rdf::EncodedTriple& t) {
  total_triples_ += 1;
  predicate_counts_[t.predicate] += 1;
  auto s = top_subjects_.find(t.subject);
  if (s != top_subjects_.end()) s->second += 1;
  auto o = top_objects_.find(t.object);
  if (o != top_objects_.end()) o->second += 1;
}

void Statistics::RemoveTriple(const rdf::EncodedTriple& t) {
  if (total_triples_ > 0) total_triples_ -= 1;
  auto p = predicate_counts_.find(t.predicate);
  if (p != predicate_counts_.end()) {
    if (p->second <= 1) {
      predicate_counts_.erase(p);
    } else {
      p->second -= 1;
    }
  }
  auto s = top_subjects_.find(t.subject);
  if (s != top_subjects_.end() && s->second > 0) s->second -= 1;
  auto o = top_objects_.find(t.object);
  if (o != top_objects_.end() && o->second > 0) o->second -= 1;
}

uint64_t Statistics::CountByPredicate(uint64_t id) const {
  auto it = predicate_counts_.find(id);
  return it == predicate_counts_.end() ? 0 : it->second;
}

double Statistics::SubjectFanout(uint64_t id) const {
  return Fanout(CountByPredicate(id), predicate_distinct_subjects_, id,
                avg_per_subject_);
}

double Statistics::ObjectFanout(uint64_t id) const {
  return Fanout(CountByPredicate(id), predicate_distinct_objects_, id,
                avg_per_object_);
}

Statistics Statistics::FromParts(
    uint64_t total_triples, uint64_t distinct_subjects,
    uint64_t distinct_objects, double avg_per_subject, double avg_per_object,
    std::unordered_map<uint64_t, uint64_t> top_subjects,
    std::unordered_map<uint64_t, uint64_t> top_objects,
    std::unordered_map<uint64_t, uint64_t> predicate_counts,
    std::unordered_map<uint64_t, uint64_t> predicate_distinct_subjects,
    std::unordered_map<uint64_t, uint64_t> predicate_distinct_objects) {
  Statistics s;
  s.total_triples_ = total_triples;
  s.distinct_subjects_ = distinct_subjects;
  s.distinct_objects_ = distinct_objects;
  s.avg_per_subject_ = avg_per_subject;
  s.avg_per_object_ = avg_per_object;
  s.top_subjects_ = std::move(top_subjects);
  s.top_objects_ = std::move(top_objects);
  s.predicate_counts_ = std::move(predicate_counts);
  s.predicate_distinct_subjects_ = std::move(predicate_distinct_subjects);
  s.predicate_distinct_objects_ = std::move(predicate_distinct_objects);
  return s;
}

}  // namespace rdfrel::opt
