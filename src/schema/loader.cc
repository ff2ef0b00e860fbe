#include "schema/loader.h"

#include <algorithm>
#include <unordered_set>

#include "util/logging.h"

namespace rdfrel::schema {

using sql::Row;
using sql::Value;

/// Per-direction shredding context: DPH/DS with the direct mapping, or
/// RPH/RS with the reverse mapping.
struct Loader::Direction {
  sql::Table* primary;
  sql::Table* secondary;
  const sql::IndexInfo* entry_index;  ///< on primary.entry
  const sql::IndexInfo* lid_index;    ///< on secondary.l_id
  const PredicateMapping* mapping;
  std::unordered_set<uint64_t>* spilled;
  std::unordered_set<uint64_t>* multivalued;
  uint32_t k;
  uint64_t* rows_counter;
  uint64_t* spill_rows_counter;
  uint64_t* secondary_counter;
};

namespace {

/// One entity's predicates in first-seen order, each with its values
/// deduplicated in first-seen order. The buffers are reused from entity to
/// entity; `pos_` and `seen_` are indexed by dictionary id, which is dense.
class EntityPredicates {
 public:
  explicit EntityPredicates(size_t id_bound)
      : pos_(id_bound, 0), seen_(id_bound, 0) {}

  /// Regroups the triples \p idxs of \p triples, taking each triple's
  /// \p value field as the value. NotFound for an id outside the
  /// dictionary.
  Status Build(const std::vector<rdf::EncodedTriple>& triples,
               const std::vector<size_t>& idxs,
               uint64_t rdf::EncodedTriple::*value) {
    for (uint64_t p : preds_) pos_[p] = 0;
    preds_.clear();
    for (size_t i : idxs) {
      const uint64_t p = triples[i].predicate;
      const uint64_t v = triples[i].*value;
      if (p >= pos_.size() || v >= seen_.size()) {
        return Status::NotFound("triple id outside the dictionary");
      }
      uint32_t& pos = pos_[p];
      if (pos == 0) {
        preds_.push_back(p);
        pos = static_cast<uint32_t>(preds_.size());
        if (values_.size() < pos) values_.emplace_back();
        values_[pos - 1].clear();
      }
      values_[pos - 1].push_back(v);
    }
    // Drop each predicate's repeated values; one stamp per predicate.
    for (size_t g = 0; g < preds_.size(); ++g, ++stamp_) {
      std::vector<uint64_t>& vs = values_[g];
      size_t kept = 0;
      for (uint64_t v : vs) {
        if (seen_[v] == stamp_) continue;
        seen_[v] = stamp_;
        vs[kept++] = v;
      }
      vs.resize(kept);
    }
    return Status::OK();
  }

  size_t size() const { return preds_.size(); }
  uint64_t pred(size_t g) const { return preds_[g]; }
  const std::vector<uint64_t>& values(size_t g) const { return values_[g]; }

 private:
  std::vector<uint32_t> pos_;   ///< predicate id -> index in preds_ + 1
  std::vector<uint64_t> seen_;  ///< value id -> stamp of the last predicate
  uint64_t stamp_ = 1;          ///< stamp of the next predicate to dedup
  std::vector<uint64_t> preds_;
  std::vector<std::vector<uint64_t>> values_;  ///< parallel to preds_
};

/// Each predicate's candidate columns under one mapping, computed on the
/// predicate's first use instead of once per entity.
class CandidateCache {
 public:
  CandidateCache(const rdf::Dictionary& dict, const PredicateMapping& mapping)
      : dict_(dict), mapping_(mapping), slot_(dict.size() + 1, 0) {}

  /// The candidates of \p pred (an id below the dictionary's bound); valid
  /// until the next call.
  Result<const std::vector<uint32_t>*> Get(uint64_t pred) {
    uint32_t& slot = slot_[pred];
    if (slot == 0) {
      RDFREL_ASSIGN_OR_RETURN(rdf::Term term, dict_.Decode(pred));
      lists_.push_back(mapping_.Columns({pred, term.lexical()}));
      slot = static_cast<uint32_t>(lists_.size());
    }
    return &lists_[slot - 1];
  }

 private:
  const rdf::Dictionary& dict_;
  const PredicateMapping& mapping_;
  std::vector<uint32_t> slot_;  ///< predicate id -> index in lists_ + 1
  std::vector<std::vector<uint32_t>> lists_;
};

}  // namespace

Loader::Loader(Db2RdfSchema* schema,
               std::shared_ptr<const PredicateMapping> direct_mapping,
               std::shared_ptr<const PredicateMapping> reverse_mapping)
    : schema_(schema),
      direct_(std::move(direct_mapping)),
      reverse_(std::move(reverse_mapping)) {
  RDFREL_CHECK(direct_->num_columns() <= schema_->config().k_direct);
  RDFREL_CHECK(reverse_->num_columns() <= schema_->config().k_reverse);
}

namespace {

/// Places (pred, val) into the first free candidate column across `rows`,
/// appending a new row image when every candidate in every row is taken.
/// Returns the row index used.
size_t PlaceIntoRows(std::vector<Row>* rows, uint32_t k, uint64_t entity,
                     uint64_t pred, int64_t val,
                     const std::vector<uint32_t>& candidates) {
  for (size_t ri = 0; ri < rows->size(); ++ri) {
    Row& row = (*rows)[ri];
    for (uint32_t c : candidates) {
      size_t ps = Db2RdfSchema::PredSlot(c);
      if (row[ps].is_null()) {
        row[ps] = Value::Int(static_cast<int64_t>(pred));
        row[Db2RdfSchema::ValSlot(c)] = Value::Int(val);
        return ri;
      }
    }
  }
  // Spill: new row image.
  Row row(2 + 2 * static_cast<size_t>(k));  // all NULL
  row[Db2RdfSchema::kEntrySlot] = Value::Int(static_cast<int64_t>(entity));
  row[Db2RdfSchema::kSpillSlot] = Value::Int(0);  // fixed up by caller
  uint32_t c = candidates.front();
  row[Db2RdfSchema::PredSlot(c)] = Value::Int(static_cast<int64_t>(pred));
  row[Db2RdfSchema::ValSlot(c)] = Value::Int(val);
  rows->push_back(std::move(row));
  return rows->size() - 1;
}

}  // namespace

Result<LoadStats> Loader::BulkLoad(const rdf::Graph& graph) {
  return BulkLoad(graph, graph.GroupBySubject(), graph.GroupByObject());
}

Result<LoadStats> Loader::BulkLoad(const rdf::Graph& graph,
                                   const rdf::TripleGroups& by_subject,
                                   const rdf::TripleGroups& by_object) {
  LoadStats batch;
  batch.triples = graph.size();

  Direction dirs[2] = {
      {schema_->dph(), schema_->ds(), schema_->dph_entry(),
       schema_->ds_lid(), direct_.get(),
       &schema_->spilled_direct(), &schema_->multivalued_direct(),
       schema_->config().k_direct, &batch.dph_rows, &batch.dph_spill_rows,
       &batch.ds_rows},
      {schema_->rph(), schema_->rs(), schema_->rph_entry(),
       schema_->rs_lid(), reverse_.get(),
       &schema_->spilled_reverse(), &schema_->multivalued_reverse(),
       schema_->config().k_reverse, &batch.rph_rows, &batch.rph_spill_rows,
       &batch.rs_rows},
  };

  const rdf::TripleGroups* groups[2] = {&by_subject, &by_object};
  const auto& triples = graph.triples();
  EntityPredicates ep(graph.dictionary().size() + 1);
  std::vector<Row> rows;
  for (int d = 0; d < 2; ++d) {
    Direction& dir = dirs[d];
    CandidateCache candidates(graph.dictionary(), *dir.mapping);
    for (const auto& [entity, idxs] : *groups[d]) {
      RDFREL_RETURN_NOT_OK(ep.Build(
          triples, idxs,
          d == 0 ? &rdf::EncodedTriple::object : &rdf::EncodedTriple::subject));
      // Assemble row images.
      rows.clear();
      rows.emplace_back(2 + 2 * static_cast<size_t>(dir.k));
      rows[0][Db2RdfSchema::kEntrySlot] =
          Value::Int(static_cast<int64_t>(entity));
      rows[0][Db2RdfSchema::kSpillSlot] = Value::Int(0);

      for (size_t g = 0; g < ep.size(); ++g) {
        const uint64_t pred = ep.pred(g);
        const std::vector<uint64_t>& objs = ep.values(g);
        int64_t val;
        if (objs.size() == 1) {
          val = static_cast<int64_t>(objs[0]);
        } else {
          val = schema_->AllocateLid();
          dir.multivalued->insert(pred);
          for (uint64_t o : objs) {
            RDFREL_RETURN_NOT_OK(
                dir.secondary
                    ->Insert({Value::Int(val),
                              Value::Int(static_cast<int64_t>(o))})
                    .status());
            ++*dir.secondary_counter;
          }
        }
        RDFREL_ASSIGN_OR_RETURN(const std::vector<uint32_t>* cands,
                                candidates.Get(pred));
        size_t ri = PlaceIntoRows(&rows, dir.k, entity, pred, val, *cands);
        if (ri > 0) dir.spilled->insert(pred);
      }

      bool spilled = rows.size() > 1;
      for (auto& row : rows) {
        if (spilled) row[Db2RdfSchema::kSpillSlot] = Value::Int(1);
        RDFREL_RETURN_NOT_OK(dir.primary->Insert(std::move(row)).status());
        ++*dir.rows_counter;
      }
      if (spilled) *dir.spill_rows_counter += rows.size() - 1;
    }
  }

  stats_ += batch;
  return batch;
}

Status Loader::InsertTriple(const rdf::Dictionary& dict,
                            const rdf::EncodedTriple& triple) {
  LoadStats batch;
  batch.triples = 1;

  Direction dirs[2] = {
      {schema_->dph(), schema_->ds(), schema_->dph_entry(),
       schema_->ds_lid(), direct_.get(),
       &schema_->spilled_direct(), &schema_->multivalued_direct(),
       schema_->config().k_direct, &batch.dph_rows, &batch.dph_spill_rows,
       &batch.ds_rows},
      {schema_->rph(), schema_->rs(), schema_->rph_entry(),
       schema_->rs_lid(), reverse_.get(),
       &schema_->spilled_reverse(), &schema_->multivalued_reverse(),
       schema_->config().k_reverse, &batch.rph_rows, &batch.rph_spill_rows,
       &batch.rs_rows},
  };

  for (int d = 0; d < 2; ++d) {
    Direction& dir = dirs[d];
    uint64_t entity = d == 0 ? triple.subject : triple.object;
    uint64_t value = d == 0 ? triple.object : triple.subject;
    uint64_t pred = triple.predicate;

    RDFREL_ASSIGN_OR_RETURN(rdf::Term pred_term, dict.Decode(pred));
    std::vector<uint32_t> candidates =
        dir.mapping->Columns({pred, pred_term.lexical()});

    // A copy: the inserts and updates below change the postings.
    std::vector<sql::RowId> rids =
        dir.entry_index->Lookup(Value::Int(static_cast<int64_t>(entity)));
    std::sort(rids.begin(), rids.end());

    // 1. If the predicate already exists in a candidate column, extend it.
    bool handled = false;
    for (sql::RowId rid : rids) {
      RDFREL_ASSIGN_OR_RETURN(Row row, dir.primary->Get(rid));
      for (uint32_t c : candidates) {
        size_t ps = Db2RdfSchema::PredSlot(c);
        size_t vs = Db2RdfSchema::ValSlot(c);
        if (row[ps].is_null() ||
            row[ps].AsInt() != static_cast<int64_t>(pred)) {
          continue;
        }
        int64_t existing = row[vs].AsInt();
        if (Db2RdfSchema::IsLid(existing)) {
          // Already multi-valued: append to the list (dedup).
          bool present = false;
          for (sql::RowId srid :
               dir.lid_index->Lookup(Value::Int(existing))) {
            RDFREL_ASSIGN_OR_RETURN(Row srow, dir.secondary->Get(srid));
            if (srow[1].AsInt() == static_cast<int64_t>(value)) {
              present = true;
              break;
            }
          }
          if (!present) {
            RDFREL_RETURN_NOT_OK(
                dir.secondary
                    ->Insert({Value::Int(existing),
                              Value::Int(static_cast<int64_t>(value))})
                    .status());
            ++*dir.secondary_counter;
          }
        } else if (existing == static_cast<int64_t>(value)) {
          // Duplicate triple; nothing to do.
        } else {
          // Convert single value to a list.
          int64_t lid = schema_->AllocateLid();
          dir.multivalued->insert(pred);
          RDFREL_RETURN_NOT_OK(
              dir.secondary
                  ->Insert({Value::Int(lid), Value::Int(existing)})
                  .status());
          RDFREL_RETURN_NOT_OK(
              dir.secondary
                  ->Insert({Value::Int(lid),
                            Value::Int(static_cast<int64_t>(value))})
                  .status());
          *dir.secondary_counter += 2;
          row[vs] = Value::Int(lid);
          RDFREL_RETURN_NOT_OK(dir.primary->Update(rid, row));
        }
        handled = true;
        break;
      }
      if (handled) break;
    }
    if (handled) continue;

    // 2. Place into a free candidate column of an existing row.
    for (size_t i = 0; i < rids.size() && !handled; ++i) {
      RDFREL_ASSIGN_OR_RETURN(Row row, dir.primary->Get(rids[i]));
      for (uint32_t c : candidates) {
        size_t ps = Db2RdfSchema::PredSlot(c);
        if (!row[ps].is_null()) continue;
        row[ps] = Value::Int(static_cast<int64_t>(pred));
        row[Db2RdfSchema::ValSlot(c)] =
            Value::Int(static_cast<int64_t>(value));
        RDFREL_RETURN_NOT_OK(dir.primary->Update(rids[i], row));
        if (i > 0) dir.spilled->insert(pred);
        handled = true;
        break;
      }
    }
    if (handled) continue;

    // 3. New row (first row for the entity, or a spill row).
    bool is_spill = !rids.empty();
    Row row(2 + 2 * static_cast<size_t>(dir.k));
    row[Db2RdfSchema::kEntrySlot] =
        Value::Int(static_cast<int64_t>(entity));
    row[Db2RdfSchema::kSpillSlot] = Value::Int(is_spill ? 1 : 0);
    uint32_t c = candidates.front();
    row[Db2RdfSchema::PredSlot(c)] = Value::Int(static_cast<int64_t>(pred));
    row[Db2RdfSchema::ValSlot(c)] =
        Value::Int(static_cast<int64_t>(value));
    RDFREL_RETURN_NOT_OK(dir.primary->Insert(row).status());
    if (is_spill) {
      dir.spilled->insert(pred);
      ++*dir.spill_rows_counter;
      // Flip the spill flag on the entity's earlier rows.
      for (sql::RowId rid : rids) {
        RDFREL_ASSIGN_OR_RETURN(Row prev, dir.primary->Get(rid));
        if (prev[Db2RdfSchema::kSpillSlot].is_null() ||
            prev[Db2RdfSchema::kSpillSlot].AsInt() == 0) {
          prev[Db2RdfSchema::kSpillSlot] = Value::Int(1);
          RDFREL_RETURN_NOT_OK(dir.primary->Update(rid, prev));
        }
      }
    }
    ++*dir.rows_counter;
  }

  stats_ += batch;
  return Status::OK();
}

Status Loader::DeleteTriple(const rdf::Dictionary& dict,
                            const rdf::EncodedTriple& triple) {
  Direction dirs[2] = {
      {schema_->dph(), schema_->ds(), schema_->dph_entry(),
       schema_->ds_lid(), direct_.get(),
       &schema_->spilled_direct(), &schema_->multivalued_direct(),
       schema_->config().k_direct, nullptr, nullptr, nullptr},
      {schema_->rph(), schema_->rs(), schema_->rph_entry(),
       schema_->rs_lid(), reverse_.get(),
       &schema_->spilled_reverse(), &schema_->multivalued_reverse(),
       schema_->config().k_reverse, nullptr, nullptr, nullptr},
  };

  for (int d = 0; d < 2; ++d) {
    Direction& dir = dirs[d];
    uint64_t entity = d == 0 ? triple.subject : triple.object;
    uint64_t value = d == 0 ? triple.object : triple.subject;
    uint64_t pred = triple.predicate;

    RDFREL_ASSIGN_OR_RETURN(rdf::Term pred_term, dict.Decode(pred));
    std::vector<uint32_t> candidates =
        dir.mapping->Columns({pred, pred_term.lexical()});

    // A copy: the updates and deletes below change the postings.
    std::vector<sql::RowId> rids =
        dir.entry_index->Lookup(Value::Int(static_cast<int64_t>(entity)));
    std::sort(rids.begin(), rids.end());

    bool removed = false;
    for (sql::RowId rid : rids) {
      RDFREL_ASSIGN_OR_RETURN(Row row, dir.primary->Get(rid));
      for (uint32_t c : candidates) {
        size_t ps = Db2RdfSchema::PredSlot(c);
        size_t vs = Db2RdfSchema::ValSlot(c);
        if (row[ps].is_null() ||
            row[ps].AsInt() != static_cast<int64_t>(pred)) {
          continue;
        }
        int64_t stored = row[vs].AsInt();
        if (Db2RdfSchema::IsLid(stored)) {
          // Remove the element from the secondary list.
          for (sql::RowId srid : dir.lid_index->Lookup(Value::Int(stored))) {
            RDFREL_ASSIGN_OR_RETURN(Row srow, dir.secondary->Get(srid));
            if (srow[1].AsInt() == static_cast<int64_t>(value)) {
              // Delete changes the postings being read: stop right after.
              RDFREL_RETURN_NOT_OK(dir.secondary->Delete(srid));
              removed = true;
              break;
            }
          }
          if (removed && dir.lid_index->Lookup(Value::Int(stored)).empty()) {
            // Last list element gone: clear the cell too.
            row[ps] = Value::Null();
            row[vs] = Value::Null();
            RDFREL_RETURN_NOT_OK(dir.primary->Update(rid, row));
          }
        } else if (stored == static_cast<int64_t>(value)) {
          row[ps] = Value::Null();
          row[vs] = Value::Null();
          RDFREL_RETURN_NOT_OK(dir.primary->Update(rid, row));
          removed = true;
        }
        if (removed) break;
      }
      if (removed) {
        // Drop the row entirely when no predicate remains on it.
        RDFREL_ASSIGN_OR_RETURN(Row after, dir.primary->Get(rid));
        bool empty = true;
        for (uint32_t c = 0; c < dir.k && empty; ++c) {
          if (!after[Db2RdfSchema::PredSlot(c)].is_null()) empty = false;
        }
        if (empty) {
          RDFREL_RETURN_NOT_OK(dir.primary->Delete(rid));
        }
        break;
      }
    }
    if (!removed) {
      return Status::NotFound("triple not present");
    }
  }
  if (stats_.triples > 0) stats_.triples -= 1;
  return Status::OK();
}

}  // namespace rdfrel::schema
