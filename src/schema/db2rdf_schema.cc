#include "schema/db2rdf_schema.h"

namespace rdfrel::schema {

namespace {

sql::Schema PrimarySchema(uint32_t k) {
  std::vector<sql::ColumnDef> cols;
  cols.push_back({"entry", sql::ValueType::kInt64});
  cols.push_back({"spill", sql::ValueType::kInt64});
  for (uint32_t i = 0; i < k; ++i) {
    cols.push_back({Db2RdfSchema::PredColumn(i), sql::ValueType::kInt64});
    cols.push_back({Db2RdfSchema::ValColumn(i), sql::ValueType::kInt64});
  }
  return sql::Schema(std::move(cols));
}

sql::Schema SecondarySchema() {
  return sql::Schema(
      {{"l_id", sql::ValueType::kInt64}, {"elm", sql::ValueType::kInt64}});
}

}  // namespace

Result<std::unique_ptr<Db2RdfSchema>> Db2RdfSchema::Create(
    sql::Database* db, const Db2RdfConfig& config) {
  if (config.k_direct == 0 || config.k_reverse == 0) {
    return Status::InvalidArgument("k_direct/k_reverse must be positive");
  }
  auto schema = std::unique_ptr<Db2RdfSchema>(new Db2RdfSchema());
  schema->config_ = config;
  auto& cat = db->catalog();
  RDFREL_ASSIGN_OR_RETURN(
      schema->dph_,
      cat.CreateTable(schema->dph_name(), PrimarySchema(config.k_direct)));
  RDFREL_ASSIGN_OR_RETURN(
      schema->ds_, cat.CreateTable(schema->ds_name(), SecondarySchema()));
  RDFREL_ASSIGN_OR_RETURN(
      schema->rph_,
      cat.CreateTable(schema->rph_name(), PrimarySchema(config.k_reverse)));
  RDFREL_ASSIGN_OR_RETURN(
      schema->rs_, cat.CreateTable(schema->rs_name(), SecondarySchema()));
  RDFREL_RETURN_NOT_OK(
      schema->dph_->CreateIndex(schema->dph_name() + "_entry", "entry"));
  RDFREL_RETURN_NOT_OK(
      schema->rph_->CreateIndex(schema->rph_name() + "_entry", "entry"));
  RDFREL_RETURN_NOT_OK(
      schema->ds_->CreateIndex(schema->ds_name() + "_lid", "l_id"));
  RDFREL_RETURN_NOT_OK(
      schema->rs_->CreateIndex(schema->rs_name() + "_lid", "l_id"));
  RDFREL_RETURN_NOT_OK(schema->BindIndexes());
  return schema;
}

Result<std::unique_ptr<Db2RdfSchema>> Db2RdfSchema::Attach(
    sql::Database* db, const Db2RdfConfig& config) {
  if (config.k_direct == 0 || config.k_reverse == 0) {
    return Status::InvalidArgument("k_direct/k_reverse must be positive");
  }
  auto schema = std::unique_ptr<Db2RdfSchema>(new Db2RdfSchema());
  schema->config_ = config;
  auto& cat = db->catalog();
  RDFREL_ASSIGN_OR_RETURN(schema->dph_, cat.GetTable(schema->dph_name()));
  RDFREL_ASSIGN_OR_RETURN(schema->ds_, cat.GetTable(schema->ds_name()));
  RDFREL_ASSIGN_OR_RETURN(schema->rph_, cat.GetTable(schema->rph_name()));
  RDFREL_ASSIGN_OR_RETURN(schema->rs_, cat.GetTable(schema->rs_name()));
  const size_t want_direct = 2 + 2 * static_cast<size_t>(config.k_direct);
  const size_t want_reverse = 2 + 2 * static_cast<size_t>(config.k_reverse);
  if (schema->dph_->schema().num_columns() != want_direct ||
      schema->rph_->schema().num_columns() != want_reverse) {
    return Status::DataLoss(
        "restored DPH/RPH column count does not match the snapshot config");
  }
  RDFREL_RETURN_NOT_OK(schema->BindIndexes());
  return schema;
}

Status Db2RdfSchema::BindIndexes() {
  struct Want {
    const sql::Table* table;
    const char* column;
    const sql::IndexInfo** index;
  };
  for (const Want& w : {Want{dph_, "entry", &dph_entry_},
                        Want{rph_, "entry", &rph_entry_},
                        Want{ds_, "l_id", &ds_lid_},
                        Want{rs_, "l_id", &rs_lid_}}) {
    *w.index = w.table->FindIndexOn(w.column);
    if (*w.index == nullptr) {
      return Status::DataLoss("table " + w.table->name() +
                              " has no index on " + w.column);
    }
  }
  return Status::OK();
}

}  // namespace rdfrel::schema
