#ifndef RDFREL_SCHEMA_DB2RDF_SCHEMA_H_
#define RDFREL_SCHEMA_DB2RDF_SCHEMA_H_

/// \file db2rdf_schema.h
/// The entity-oriented DB2RDF relational layout (paper §2.1, Figure 1):
///
///   DPH(entry, spill, pred0, val0, ..., pred{k-1}, val{k-1})  one row
///     per subject (plus spill rows); predicates hashed/colored to columns.
///   DS(l_id, elm)  multi-valued object lists, keyed by negative lids.
///   RPH / RS       the mirror image keyed by object.
///
/// All cells are dictionary ids (BIGINT). Multi-valued predicate cells hold
/// a *negative* list id referencing DS/RS — disjoint from dictionary ids
/// (which start at 1), so COALESCE(secondary.elm, val) is unambiguous.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>

#include "sql/database.h"
#include "util/status.h"

namespace rdfrel::schema {

/// Layout parameters.
struct Db2RdfConfig {
  /// Number of (pred, val) column pairs in DPH.
  uint32_t k_direct = 32;
  /// Number of (pred, val) column pairs in RPH.
  uint32_t k_reverse = 32;
  /// Table-name prefix, so several stores can share a Database.
  std::string prefix = "";
};

/// Owns the four relations' names/handles inside a Database and the shared
/// bookkeeping the translator needs (spilled & multi-valued predicate sets).
class Db2RdfSchema {
 public:
  /// Creates the four tables in \p db with an equality index on DPH.entry
  /// and RPH.entry (the paper indexes only these) and on DS.l_id and
  /// RS.l_id, which the loader probes to extend and shrink value lists.
  static Result<std::unique_ptr<Db2RdfSchema>> Create(
      sql::Database* db, const Db2RdfConfig& config);

  /// Binds to the four tables already present in \p db (the recovery path:
  /// the catalog was restored from a snapshot first). Fails with NotFound
  /// when any of them is missing, and with DataLoss when one lacks its
  /// entry / l_id index.
  static Result<std::unique_ptr<Db2RdfSchema>> Attach(
      sql::Database* db, const Db2RdfConfig& config);

  const Db2RdfConfig& config() const { return config_; }

  sql::Table* dph() { return dph_; }
  sql::Table* ds() { return ds_; }
  sql::Table* rph() { return rph_; }
  sql::Table* rs() { return rs_; }
  const sql::Table* dph() const { return dph_; }
  const sql::Table* ds() const { return ds_; }
  const sql::Table* rph() const { return rph_; }
  const sql::Table* rs() const { return rs_; }

  /// The indexes on DPH.entry, RPH.entry, DS.l_id and RS.l_id (never null).
  const sql::IndexInfo* dph_entry() const { return dph_entry_; }
  const sql::IndexInfo* rph_entry() const { return rph_entry_; }
  const sql::IndexInfo* ds_lid() const { return ds_lid_; }
  const sql::IndexInfo* rs_lid() const { return rs_lid_; }

  std::string dph_name() const { return config_.prefix + "dph"; }
  std::string ds_name() const { return config_.prefix + "ds"; }
  std::string rph_name() const { return config_.prefix + "rph"; }
  std::string rs_name() const { return config_.prefix + "rs"; }

  /// Column names within DPH/RPH.
  static std::string PredColumn(uint32_t i) {
    return "pred" + std::to_string(i);
  }
  static std::string ValColumn(uint32_t i) {
    return "val" + std::to_string(i);
  }

  /// Column *indexes* within the DPH/RPH schema (entry=0, spill=1, then
  /// pred/val pairs).
  static constexpr size_t kEntrySlot = 0;
  static constexpr size_t kSpillSlot = 1;
  static size_t PredSlot(uint32_t i) { return 2 + 2 * static_cast<size_t>(i); }
  static size_t ValSlot(uint32_t i) { return 3 + 2 * static_cast<size_t>(i); }

  /// Allocates a fresh multi-value list id (negative, process-unique within
  /// this schema instance).
  int64_t AllocateLid() { return next_lid_--; }
  /// True when \p v is a list id (refers to DS/RS).
  static bool IsLid(int64_t v) { return v < 0; }

  /// Lid watermark, persisted/restored by snapshots so recovered stores
  /// never reuse a live list id.
  int64_t next_lid() const { return next_lid_; }
  void set_next_lid(int64_t lid) { next_lid_ = lid; }

  /// Predicates involved in spills (stored on a row other than an entity's
  /// first row), per direction. The translator consults these to decide
  /// which star-query merges are safe (paper §3.2.1).
  std::unordered_set<uint64_t>& spilled_direct() { return spilled_direct_; }
  std::unordered_set<uint64_t>& spilled_reverse() { return spilled_reverse_; }
  const std::unordered_set<uint64_t>& spilled_direct() const {
    return spilled_direct_;
  }
  const std::unordered_set<uint64_t>& spilled_reverse() const {
    return spilled_reverse_;
  }

  /// Predicates that are multi-valued somewhere, per direction. Determines
  /// whether generated SQL must outer-join the secondary table.
  std::unordered_set<uint64_t>& multivalued_direct() {
    return multivalued_direct_;
  }
  std::unordered_set<uint64_t>& multivalued_reverse() {
    return multivalued_reverse_;
  }
  const std::unordered_set<uint64_t>& multivalued_direct() const {
    return multivalued_direct_;
  }
  const std::unordered_set<uint64_t>& multivalued_reverse() const {
    return multivalued_reverse_;
  }

 private:
  Db2RdfSchema() = default;

  /// Binds dph_entry_ .. rs_lid_; DataLoss when a table lacks its index.
  Status BindIndexes();

  Db2RdfConfig config_;
  sql::Table* dph_ = nullptr;
  sql::Table* ds_ = nullptr;
  sql::Table* rph_ = nullptr;
  sql::Table* rs_ = nullptr;
  const sql::IndexInfo* dph_entry_ = nullptr;
  const sql::IndexInfo* rph_entry_ = nullptr;
  const sql::IndexInfo* ds_lid_ = nullptr;
  const sql::IndexInfo* rs_lid_ = nullptr;
  int64_t next_lid_ = -1;
  std::unordered_set<uint64_t> spilled_direct_;
  std::unordered_set<uint64_t> spilled_reverse_;
  std::unordered_set<uint64_t> multivalued_direct_;
  std::unordered_set<uint64_t> multivalued_reverse_;
};

}  // namespace rdfrel::schema

#endif  // RDFREL_SCHEMA_DB2RDF_SCHEMA_H_
