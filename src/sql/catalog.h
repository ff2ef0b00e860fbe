#ifndef RDFREL_SQL_CATALOG_H_
#define RDFREL_SQL_CATALOG_H_

/// \file catalog.h
/// The catalog: named tables, each owning its rows plus secondary indexes
/// that are kept consistent through the Table mutation API.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sql/hash_index.h"
#include "sql/row.h"
#include "sql/schema.h"
#include "util/status.h"

namespace rdfrel::sql {

/// A secondary equality index on one column of a table.
struct IndexInfo {
  std::string name;
  int column = -1;
  HashIndex hash;

  /// RowIds whose indexed column equals \p key, read in place: the
  /// reference is valid until the table is next mutated.
  const std::vector<RowId>& Lookup(const Value& key) const {
    return hash.Lookup(key);
  }
};

/// A table: a schema, its rows and the secondary indexes kept consistent
/// through the mutation API.
///
/// Rows are held decoded, one per slot of a vector; a RowId is the slot
/// number. Deleting a row frees its slot for the next insert, and updates
/// replace a row in place, so a RowId is stable for the row's lifetime.
/// The table has no lock of its own: readers may share it only while no
/// thread mutates it (the stores read under their shared lock and mutate
/// under the exclusive one).
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t row_count() const { return rows_.size() - free_.size(); }

  /// Builds an index over existing rows; errors on duplicate name or
  /// unknown column.
  Status CreateIndex(const std::string& index_name,
                     const std::string& column_name);

  /// Index over \p column_name, or nullptr.
  const IndexInfo* FindIndexOn(const std::string& column_name) const;
  const IndexInfo* FindIndexByName(const std::string& index_name) const;
  const std::vector<std::unique_ptr<IndexInfo>>& indexes() const {
    return indexes_;
  }

  /// Inserts a row (validated against the schema; an INT value in a DOUBLE
  /// column is stored widened to a REAL) into a free slot.
  Result<RowId> Insert(Row row);
  /// Copy of the live row at \p rid; NotFound for a dead or unknown slot.
  Result<Row> Get(RowId rid) const;
  /// The live row at \p rid, or nullptr for a dead or unknown slot.
  const Row* Find(RowId rid) const {
    return rid < rows_.size() && live_[rid] ? &rows_[rid] : nullptr;
  }
  /// Replaces the live row at \p rid in place (validated like Insert).
  Status Update(RowId rid, Row new_row);
  Status Delete(RowId rid);
  /// Visits the live rows in slot order.
  Status Scan(const std::function<Status(RowId, const Row&)>& fn) const;

  /// Slot-level access for scans: slots [0, num_slots()) hold the rows,
  /// dead ones included; a slot is live iff IsLive.
  size_t num_slots() const { return rows_.size(); }
  const Row* slots() const { return rows_.data(); }
  bool IsLive(RowId rid) const { return live_[rid] != 0; }
  /// True when some slot below num_slots() is dead.
  bool has_dead_slots() const { return !free_.empty(); }

 private:
  Status NoRow(RowId rid) const;
  /// Validates \p row and widens its INT values in DOUBLE columns.
  Status Admit(Row* row) const;
  void IndexInsert(IndexInfo* idx, const Row& row, RowId rid);
  void IndexRemove(IndexInfo* idx, const Row& row, RowId rid);

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;        ///< by slot; dead slots hold an empty Row
  std::vector<uint8_t> live_;    ///< by slot: 1 when the slot holds a row
  std::vector<RowId> free_;      ///< dead slots, reused last-freed first
  std::vector<std::unique_ptr<IndexInfo>> indexes_;
};

/// Named-table registry.
class Catalog {
 public:
  Catalog() = default;

  /// Creates a table; AlreadyExists on duplicate (case-insensitive) name.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Table by name, or NotFound.
  Result<Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;  // lower-case name
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_CATALOG_H_
