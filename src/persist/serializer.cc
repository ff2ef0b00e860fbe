#include "persist/serializer.h"

#include <utility>

namespace rdfrel::persist {

namespace {

constexpr uint8_t kMappingHash = 0;
constexpr uint8_t kMappingColoring = 1;

// Each catalog index carries a kind byte. Every index is a hash index
// and is written as kHashIndexTag; snapshots from when entry columns used an
// ordered tree carry kOrderedIndexTag, which decodes to the same index.
constexpr uint8_t kOrderedIndexTag = 0;
constexpr uint8_t kHashIndexTag = 1;

// Smallest encodings, used to reject element counts a payload cannot hold
// before reserving memory for them.
constexpr size_t kMinTermBytes = 1 + 3 * 4;   // kind + 3 empty strings
constexpr size_t kMinColumnBytes = 4 + 1;     // empty name + type
constexpr size_t kMinIndexBytes = 4 + 4 + 1;  // 2 empty names + kind
// A hash mapping builds one function object per count; real stores use
// 1-3, and this cap keeps a corrupt count from allocating gigabytes.
constexpr uint32_t kMaxHashFunctions = 1u << 16;

void PutCountMap(std::string* out,
                 const std::unordered_map<uint64_t, uint64_t>& m) {
  PutU64(out, m.size());
  for (const auto& [k, v] : m) {
    PutU64(out, k);
    PutU64(out, v);
  }
}

Result<std::unordered_map<uint64_t, uint64_t>> ReadCountMap(ByteReader* r) {
  RDFREL_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  if (n > r->remaining() / 16) {
    return Status::DataLoss("count map larger than remaining payload");
  }
  std::unordered_map<uint64_t, uint64_t> m;
  m.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    RDFREL_ASSIGN_OR_RETURN(uint64_t k, r->ReadU64());
    RDFREL_ASSIGN_OR_RETURN(uint64_t v, r->ReadU64());
    m[k] = v;
  }
  return m;
}

void EncodeValue(std::string* out, const sql::Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case sql::ValueType::kNull:
      break;
    case sql::ValueType::kInt64:
      PutI64(out, v.AsInt());
      break;
    case sql::ValueType::kDouble:
      PutDouble(out, v.AsDouble());
      break;
  }
}

Result<sql::Value> DecodeValue(ByteReader* r) {
  RDFREL_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
  switch (static_cast<sql::ValueType>(tag)) {
    case sql::ValueType::kNull:
      return sql::Value::Null();
    case sql::ValueType::kInt64: {
      RDFREL_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
      return sql::Value::Int(v);
    }
    case sql::ValueType::kDouble: {
      RDFREL_ASSIGN_OR_RETURN(double v, r->ReadDouble());
      return sql::Value::Real(v);
    }
  }
  // Tag 3 was VARCHAR, which no store ever wrote; it is unknown like any other.
  return Status::DataLoss("unknown value tag " + std::to_string(tag));
}

}  // namespace

// --- RDF terms and triple batches -----------------------------------------

void EncodeTerm(std::string* out, const rdf::Term& term) {
  PutU8(out, static_cast<uint8_t>(term.kind()));
  PutString(out, term.lexical());
  PutString(out, term.language());
  PutString(out, term.datatype());
}

Result<rdf::Term> DecodeTerm(ByteReader* r) {
  RDFREL_ASSIGN_OR_RETURN(uint8_t kind, r->ReadU8());
  RDFREL_ASSIGN_OR_RETURN(std::string_view lex, r->ReadString());
  RDFREL_ASSIGN_OR_RETURN(std::string_view lang, r->ReadString());
  RDFREL_ASSIGN_OR_RETURN(std::string_view dtype, r->ReadString());
  switch (static_cast<rdf::TermKind>(kind)) {
    case rdf::TermKind::kIri:
      return rdf::Term::Iri(std::string(lex));
    case rdf::TermKind::kBlankNode:
      return rdf::Term::BlankNode(std::string(lex));
    case rdf::TermKind::kLiteral:
      if (!lang.empty()) {
        return rdf::Term::LangLiteral(std::string(lex), std::string(lang));
      }
      if (!dtype.empty()) {
        return rdf::Term::TypedLiteral(std::string(lex), std::string(dtype));
      }
      return rdf::Term::Literal(std::string(lex));
  }
  return Status::DataLoss("unknown term kind " + std::to_string(kind));
}

std::string EncodeTripleBatch(const std::vector<rdf::Triple>& triples) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(triples.size()));
  for (const auto& t : triples) {
    EncodeTerm(&out, t.subject);
    EncodeTerm(&out, t.predicate);
    EncodeTerm(&out, t.object);
  }
  return out;
}

Result<std::vector<rdf::Triple>> DecodeTripleBatch(std::string_view payload) {
  ByteReader r(payload);
  RDFREL_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  if (n > r.remaining() / (3 * kMinTermBytes)) {
    return Status::DataLoss("triple batch larger than payload");
  }
  std::vector<rdf::Triple> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    rdf::Triple t;
    RDFREL_ASSIGN_OR_RETURN(t.subject, DecodeTerm(&r));
    RDFREL_ASSIGN_OR_RETURN(t.predicate, DecodeTerm(&r));
    RDFREL_ASSIGN_OR_RETURN(t.object, DecodeTerm(&r));
    out.push_back(std::move(t));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after triple batch");
  }
  return out;
}

// --- Dictionary -----------------------------------------------------------

std::string EncodeDictionary(const rdf::Dictionary& dict) {
  std::string out;
  PutU64(&out, dict.size());
  for (uint64_t id = 1; id <= dict.size(); ++id) {
    // Decode cannot fail for ids in [1, size].
    EncodeTerm(&out, dict.Decode(id).value());
  }
  return out;
}

Result<rdf::Dictionary> DecodeDictionary(std::string_view payload) {
  ByteReader r(payload);
  RDFREL_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
  rdf::Dictionary dict;
  for (uint64_t i = 1; i <= n; ++i) {
    RDFREL_ASSIGN_OR_RETURN(rdf::Term term, DecodeTerm(&r));
    uint64_t id = dict.Encode(term);
    if (id != i) {
      // A duplicate term in the stream would silently shift every later id.
      return Status::DataLoss("dictionary ids not dense on reload: term " +
                              std::to_string(i) + " got id " +
                              std::to_string(id));
    }
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after dictionary");
  }
  return dict;
}

// --- Optimizer statistics -------------------------------------------------

std::string EncodeStatistics(const opt::Statistics& stats) {
  std::string out;
  PutU64(&out, stats.total_triples());
  PutU64(&out, stats.distinct_subjects());
  PutU64(&out, stats.distinct_objects());
  PutDouble(&out, stats.avg_triples_per_subject());
  PutDouble(&out, stats.avg_triples_per_object());
  PutCountMap(&out, stats.top_subject_counts());
  PutCountMap(&out, stats.top_object_counts());
  PutCountMap(&out, stats.predicate_count_map());
  // Tail added after format version 1 shipped: a payload that ends here is
  // a snapshot written before per-predicate fan-outs, and decodes with
  // empty maps (the cost model then falls back to the averages).
  PutCountMap(&out, stats.predicate_distinct_subject_map());
  PutCountMap(&out, stats.predicate_distinct_object_map());
  return out;
}

Result<opt::Statistics> DecodeStatistics(std::string_view payload) {
  ByteReader r(payload);
  RDFREL_ASSIGN_OR_RETURN(uint64_t total, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(uint64_t ds, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(uint64_t dobj, r.ReadU64());
  RDFREL_ASSIGN_OR_RETURN(double avg_s, r.ReadDouble());
  RDFREL_ASSIGN_OR_RETURN(double avg_o, r.ReadDouble());
  RDFREL_ASSIGN_OR_RETURN(auto top_s, ReadCountMap(&r));
  RDFREL_ASSIGN_OR_RETURN(auto top_o, ReadCountMap(&r));
  RDFREL_ASSIGN_OR_RETURN(auto preds, ReadCountMap(&r));
  std::unordered_map<uint64_t, uint64_t> pred_ds;
  std::unordered_map<uint64_t, uint64_t> pred_do;
  if (!r.AtEnd()) {
    RDFREL_ASSIGN_OR_RETURN(pred_ds, ReadCountMap(&r));
    RDFREL_ASSIGN_OR_RETURN(pred_do, ReadCountMap(&r));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after statistics");
  }
  return opt::Statistics::FromParts(total, ds, dobj, avg_s, avg_o,
                                    std::move(top_s), std::move(top_o),
                                    std::move(preds), std::move(pred_ds),
                                    std::move(pred_do));
}

// --- Predicate mappings ---------------------------------------------------

Status EncodeMapping(std::string* out,
                     const schema::PredicateMapping& mapping) {
  if (const auto* h = dynamic_cast<const schema::HashMapping*>(&mapping)) {
    PutU8(out, kMappingHash);
    PutU32(out, h->num_columns());
    PutU32(out, h->num_functions());
    PutU64(out, h->seed());
    return Status::OK();
  }
  if (const auto* c = dynamic_cast<const schema::ColoringMapping*>(&mapping)) {
    PutU8(out, kMappingColoring);
    PutU32(out, c->num_columns());
    PutU32(out, c->fallback().num_functions());
    PutU64(out, c->fallback().seed());
    const schema::ColoringResult& res = c->result();
    PutU32(out, res.colors_used);
    PutDouble(out, res.coverage);
    PutU64(out, res.assignment.size());
    for (const auto& [pred, col] : res.assignment) {
      PutU64(out, pred);
      PutU32(out, col);
    }
    PutU64(out, res.punted.size());
    for (uint64_t pred : res.punted) {
      PutU64(out, pred);
    }
    return Status::OK();
  }
  return Status::Unsupported("cannot persist this predicate mapping kind");
}

Result<std::shared_ptr<const schema::PredicateMapping>> DecodeMapping(
    ByteReader* r) {
  RDFREL_ASSIGN_OR_RETURN(uint8_t kind, r->ReadU8());
  if (kind == kMappingHash) {
    RDFREL_ASSIGN_OR_RETURN(uint32_t cols, r->ReadU32());
    RDFREL_ASSIGN_OR_RETURN(uint32_t fns, r->ReadU32());
    RDFREL_ASSIGN_OR_RETURN(uint64_t seed, r->ReadU64());
    if (cols == 0 || fns == 0 || fns > kMaxHashFunctions) {
      return Status::DataLoss("hash mapping with " + std::to_string(cols) +
                              " columns and " + std::to_string(fns) +
                              " functions");
    }
    return std::shared_ptr<const schema::PredicateMapping>(
        std::make_shared<schema::HashMapping>(cols, fns, seed));
  }
  if (kind == kMappingColoring) {
    RDFREL_ASSIGN_OR_RETURN(uint32_t cols, r->ReadU32());
    RDFREL_ASSIGN_OR_RETURN(uint32_t fns, r->ReadU32());
    RDFREL_ASSIGN_OR_RETURN(uint64_t seed, r->ReadU64());
    schema::ColoringResult res;
    RDFREL_ASSIGN_OR_RETURN(res.colors_used, r->ReadU32());
    RDFREL_ASSIGN_OR_RETURN(res.coverage, r->ReadDouble());
    RDFREL_ASSIGN_OR_RETURN(uint64_t n_assign, r->ReadU64());
    if (n_assign > r->remaining() / 12) {
      return Status::DataLoss("coloring assignment larger than payload");
    }
    res.assignment.reserve(n_assign);
    for (uint64_t i = 0; i < n_assign; ++i) {
      RDFREL_ASSIGN_OR_RETURN(uint64_t pred, r->ReadU64());
      RDFREL_ASSIGN_OR_RETURN(uint32_t col, r->ReadU32());
      if (col >= cols) {
        return Status::DataLoss("coloring assigns column " +
                                std::to_string(col) + " of " +
                                std::to_string(cols));
      }
      res.assignment[pred] = col;
    }
    RDFREL_ASSIGN_OR_RETURN(uint64_t n_punted, r->ReadU64());
    if (n_punted > r->remaining() / 8) {
      return Status::DataLoss("punted set larger than payload");
    }
    res.punted.reserve(n_punted);
    for (uint64_t i = 0; i < n_punted; ++i) {
      RDFREL_ASSIGN_OR_RETURN(uint64_t pred, r->ReadU64());
      res.punted.insert(pred);
    }
    if (cols == 0 || fns == 0 || fns > kMaxHashFunctions ||
        res.colors_used > cols) {
      return Status::DataLoss("coloring mapping with " +
                              std::to_string(cols) + " columns, " +
                              std::to_string(fns) + " functions and " +
                              std::to_string(res.colors_used) + " colors");
    }
    return std::shared_ptr<const schema::PredicateMapping>(
        std::make_shared<schema::ColoringMapping>(std::move(res), cols, fns,
                                                  seed));
  }
  return Status::DataLoss("unknown mapping kind " + std::to_string(kind));
}

// --- Catalog tables -------------------------------------------------------

void EncodeTable(std::string* out, const sql::Table& table) {
  PutString(out, table.name());
  const sql::Schema& schema = table.schema();
  PutU32(out, static_cast<uint32_t>(schema.num_columns()));
  for (const auto& col : schema.columns()) {
    PutString(out, col.name);
    PutU8(out, static_cast<uint8_t>(col.type));
  }
  PutU32(out, static_cast<uint32_t>(table.indexes().size()));
  for (const auto& idx : table.indexes()) {
    PutString(out, idx->name);
    PutString(out, schema.column(static_cast<size_t>(idx->column)).name);
    PutU8(out, kHashIndexTag);
  }
  PutU64(out, table.row_count());
  // Scan visits live rows in slot order; reload re-inserts in that order.
  Status scan = table.Scan([out](sql::RowId, const sql::Row& row) {
    for (const auto& v : row) {
      EncodeValue(out, v);
    }
    return Status::OK();
  });
  IgnoreError(scan, "in-memory scan with an infallible callback cannot fail");
}

Status DecodeTableInto(ByteReader* r, sql::Catalog* catalog) {
  RDFREL_ASSIGN_OR_RETURN(std::string_view name, r->ReadString());
  RDFREL_ASSIGN_OR_RETURN(uint32_t n_cols, r->ReadU32());
  if (n_cols > r->remaining() / kMinColumnBytes) {
    return Status::DataLoss("table schema larger than payload");
  }
  std::vector<sql::ColumnDef> cols;
  cols.reserve(n_cols);
  for (uint32_t i = 0; i < n_cols; ++i) {
    sql::ColumnDef def;
    RDFREL_ASSIGN_OR_RETURN(std::string_view col_name, r->ReadString());
    def.name = std::string(col_name);
    RDFREL_ASSIGN_OR_RETURN(uint8_t type, r->ReadU8());
    def.type = static_cast<sql::ValueType>(type);
    if (def.type != sql::ValueType::kInt64 &&
        def.type != sql::ValueType::kDouble) {
      return Status::DataLoss("unknown column type " + std::to_string(type));
    }
    cols.push_back(std::move(def));
  }

  struct IndexSpec {
    std::string name;
    std::string column;
  };
  RDFREL_ASSIGN_OR_RETURN(uint32_t n_indexes, r->ReadU32());
  if (n_indexes > r->remaining() / kMinIndexBytes) {
    return Status::DataLoss("index list larger than payload");
  }
  std::vector<IndexSpec> indexes;
  indexes.reserve(n_indexes);
  for (uint32_t i = 0; i < n_indexes; ++i) {
    IndexSpec spec;
    RDFREL_ASSIGN_OR_RETURN(std::string_view idx_name, r->ReadString());
    spec.name = std::string(idx_name);
    RDFREL_ASSIGN_OR_RETURN(std::string_view col_name, r->ReadString());
    spec.column = std::string(col_name);
    RDFREL_ASSIGN_OR_RETURN(uint8_t kind, r->ReadU8());
    if (kind != kOrderedIndexTag && kind != kHashIndexTag) {
      return Status::DataLoss("unknown index kind " + std::to_string(kind));
    }
    indexes.push_back(std::move(spec));
  }

  RDFREL_ASSIGN_OR_RETURN(sql::Table * table,
                          catalog->CreateTable(std::string(name),
                                               sql::Schema(std::move(cols))));
  RDFREL_ASSIGN_OR_RETURN(uint64_t n_rows, r->ReadU64());
  // Every value takes at least its tag byte, so a row of n columns takes
  // at least n bytes; a zero-column table holds no rows.
  const size_t width = table->schema().num_columns();
  if (width == 0 ? n_rows > 0 : n_rows > r->remaining() / width) {
    return Status::DataLoss("table rows larger than payload");
  }
  for (uint64_t i = 0; i < n_rows; ++i) {
    sql::Row row;
    row.reserve(table->schema().num_columns());
    for (size_t c = 0; c < table->schema().num_columns(); ++c) {
      RDFREL_ASSIGN_OR_RETURN(sql::Value v, DecodeValue(r));
      row.push_back(std::move(v));
    }
    RDFREL_RETURN_NOT_OK(table->Insert(std::move(row)).status());
  }
  // Indexes last: CreateIndex backfills from the freshly inserted rows —
  // the "rebuild indexes on load" path.
  for (const auto& spec : indexes) {
    RDFREL_RETURN_NOT_OK(table->CreateIndex(spec.name, spec.column));
  }
  return Status::OK();
}

std::string EncodeCatalog(const sql::Catalog& catalog) {
  std::string out;
  std::vector<std::string> names = catalog.TableNames();
  PutU32(&out, static_cast<uint32_t>(names.size()));
  for (const auto& name : names) {
    EncodeTable(&out, *catalog.GetTable(name).value());
  }
  return out;
}

Status DecodeCatalogInto(std::string_view payload, sql::Catalog* catalog) {
  ByteReader r(payload);
  RDFREL_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  for (uint32_t i = 0; i < n; ++i) {
    RDFREL_RETURN_NOT_OK(DecodeTableInto(&r, catalog));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after catalog");
  }
  return Status::OK();
}

}  // namespace rdfrel::persist
