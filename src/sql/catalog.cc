#include "sql/catalog.h"

#include "util/string_util.h"

namespace rdfrel::sql {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column_name) {
  if (FindIndexByName(index_name) != nullptr) {
    return Status::AlreadyExists("index " + index_name);
  }
  int col = schema().FindColumn(column_name);
  if (col < 0) {
    return Status::NotFound("column " + column_name + " in table " + name_);
  }
  auto idx = std::make_unique<IndexInfo>();
  idx->name = index_name;
  idx->column = col;
  IndexInfo* raw = idx.get();
  // Backfill from existing rows.
  RDFREL_RETURN_NOT_OK(Scan([&](RowId rid, const Row& row) {
    IndexInsert(raw, row, rid);
    return Status::OK();
  }));
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

const IndexInfo* Table::FindIndexOn(const std::string& column_name) const {
  int col = schema().FindColumn(column_name);
  if (col < 0) return nullptr;
  for (const auto& idx : indexes_) {
    if (idx->column == col) return idx.get();
  }
  return nullptr;
}

const IndexInfo* Table::FindIndexByName(const std::string& index_name) const {
  for (const auto& idx : indexes_) {
    if (EqualsIgnoreCaseAscii(idx->name, index_name)) return idx.get();
  }
  return nullptr;
}

void Table::IndexInsert(IndexInfo* idx, const Row& row, RowId rid) {
  const Value& key = row[static_cast<size_t>(idx->column)];
  if (key.is_null()) return;  // NULLs are not indexed
  idx->hash.Insert(key, rid);
}

void Table::IndexRemove(IndexInfo* idx, const Row& row, RowId rid) {
  const Value& key = row[static_cast<size_t>(idx->column)];
  if (key.is_null()) return;
  idx->hash.Remove(key, rid);
}

Status Table::NoRow(RowId rid) const {
  return Status::NotFound("row " + std::to_string(rid) + " of table " +
                          name_);
}

Status Table::Admit(Row* row) const {
  RDFREL_RETURN_NOT_OK(schema_.ValidateRow(*row));
  for (size_t i = 0; i < row->size(); ++i) {
    Value& v = (*row)[i];
    if (v.is_int() && schema_.column(i).type == ValueType::kDouble) {
      v = Value::Real(static_cast<double>(v.AsInt()));
    }
  }
  return Status::OK();
}

Result<RowId> Table::Insert(Row row) {
  RDFREL_RETURN_NOT_OK(Admit(&row));
  RowId rid;
  if (!free_.empty()) {
    rid = free_.back();
    free_.pop_back();
    rows_[rid] = std::move(row);
    live_[rid] = 1;
  } else {
    rid = static_cast<RowId>(rows_.size());
    rows_.push_back(std::move(row));
    live_.push_back(1);
  }
  for (auto& idx : indexes_) IndexInsert(idx.get(), rows_[rid], rid);
  return rid;
}

Result<Row> Table::Get(RowId rid) const {
  const Row* row = Find(rid);
  if (row == nullptr) return NoRow(rid);
  return *row;
}

Status Table::Update(RowId rid, Row new_row) {
  if (Find(rid) == nullptr) return NoRow(rid);
  RDFREL_RETURN_NOT_OK(Admit(&new_row));
  Row& row = rows_[rid];
  for (auto& idx : indexes_) {
    const auto col = static_cast<size_t>(idx->column);
    if (row[col] == new_row[col]) continue;
    IndexRemove(idx.get(), row, rid);
    IndexInsert(idx.get(), new_row, rid);
  }
  row = std::move(new_row);
  return Status::OK();
}

Status Table::Delete(RowId rid) {
  if (Find(rid) == nullptr) return NoRow(rid);
  for (auto& idx : indexes_) IndexRemove(idx.get(), rows_[rid], rid);
  rows_[rid] = Row();
  live_[rid] = 0;
  free_.push_back(rid);
  return Status::OK();
}

Status Table::Scan(
    const std::function<Status(RowId, const Row&)>& fn) const {
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (live_[i]) RDFREL_RETURN_NOT_OK(fn(static_cast<RowId>(i), rows_[i]));
  }
  return Status::OK();
}

Result<Table*> Catalog::CreateTable(const std::string& name,
                                    Schema schema) {
  std::string key = ToLowerAscii(name);
  if (tables_.count(key)) return Status::AlreadyExists("table " + name);
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* raw = table.get();
  tables_.emplace(std::move(key), std::move(table));
  return raw;
}

Result<Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(ToLowerAscii(name)) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(ToLowerAscii(name));
  if (it == tables_.end()) return Status::NotFound("table " + name);
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [k, t] : tables_) names.push_back(t->name());
  return names;
}

}  // namespace rdfrel::sql
