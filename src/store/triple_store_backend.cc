#include "store/triple_store_backend.h"

#include "translate/sql_base.h"

namespace rdfrel::store {

namespace {

using opt::ExecKind;
using opt::ExecNode;
using translate::PatternSqlBuilderBase;

/// Figure 2c-style translation: one `triples` instance per triple pattern.
class TripleStoreSqlBuilder final : public PatternSqlBuilderBase {
 public:
  TripleStoreSqlBuilder(const sparql::Query& query,
                        const rdf::Dictionary* dict, std::string lex_table)
      : PatternSqlBuilderBase(query, dict, std::move(lex_table)) {}

 protected:
  Status EmitAccess(const ExecNode& node) override {
    if (node.kind != ExecKind::kTriple) {
      return Status::Internal(
          "triple-store plans must not contain merged stars");
    }
    const sparql::TriplePattern& t = *node.triple;
    AccessBinds binds;
    BindComponent(t.subject, "T.subj", &binds);
    BindComponent(t.predicate, "T.pred", &binds);
    BindComponent(t.object, "T.obj", &binds);
    EmitAccessCte("triples", binds, "T.subj AS dummy_subj");
    return Status::OK();
  }
};

}  // namespace

Result<std::unique_ptr<TripleStoreBackend>> TripleStoreBackend::Load(
    rdf::Graph graph, const TripleStoreOptions& options) {
  auto store =
      std::unique_ptr<TripleStoreBackend>(new TripleStoreBackend(options));
  store->stats_ = opt::Statistics::FromGraph(graph, options.stats_top_k);
  RDFREL_ASSIGN_OR_RETURN(
      sql::Table * table,
      store->db_.catalog().CreateTable(
          "triples", sql::Schema({{"subj", sql::ValueType::kInt64},
                                  {"pred", sql::ValueType::kInt64},
                                  {"obj", sql::ValueType::kInt64}})));
  // RDF graphs are sets: duplicate triples collapse (matching the DB2RDF
  // loader's semantics).
  for (const auto& t : graph.DistinctTriples()) {
    RDFREL_RETURN_NOT_OK(
        table
            ->Insert({sql::Value::Int(static_cast<int64_t>(t.subject)),
                      sql::Value::Int(static_cast<int64_t>(t.predicate)),
                      sql::Value::Int(static_cast<int64_t>(t.object))})
            .status());
  }
  if (options.index_subject) {
    RDFREL_RETURN_NOT_OK(
        table->CreateIndex("triples_subj", "subj", sql::IndexKind::kBTree));
  }
  if (options.index_object) {
    RDFREL_RETURN_NOT_OK(
        table->CreateIndex("triples_obj", "obj", sql::IndexKind::kBTree));
  }
  if (options.index_predicate) {
    RDFREL_RETURN_NOT_OK(
        table->CreateIndex("triples_pred", "pred", sql::IndexKind::kBTree));
  }
  if (options.build_lex) {
    store->lex_table_ = "lex";
    RDFREL_RETURN_NOT_OK(
        BuildLexTable(&store->db_, graph.dictionary(), store->lex_table_));
  }
  store->dict_ = std::move(graph.dictionary());
  return store;
}

Result<std::unique_ptr<TripleStoreBackend>> TripleStoreBackend::Open(
    const std::string& dir, const PersistOptions& persist_opts,
    const TripleStoreOptions& options) {
  RDFREL_ASSIGN_OR_RETURN(persist::RecoveryPlan plan,
                          ScanForRecovery(dir, persist_opts));
  return OpenFromPlan(std::move(plan), persist_opts, options);
}

Result<std::unique_ptr<TripleStoreBackend>> TripleStoreBackend::OpenFromPlan(
    persist::RecoveryPlan plan, const PersistOptions& persist_opts,
    const TripleStoreOptions& options) {
  auto store =
      std::unique_ptr<TripleStoreBackend>(new TripleStoreBackend(options));
  RDFREL_RETURN_NOT_OK(store->Recover(std::move(plan), persist_opts));
  return store;
}

Result<translate::TranslatedQuery> TripleStoreBackend::Translate(
    const sparql::Query& query, const QueryOptions& opts,
    Explanation* explain) const {
  OptimizerInputs in;
  in.stats = &stats_;
  in.dict = &dict_;
  auto build = [this](const sparql::Query& q, const opt::ExecNode& exec) {
    TripleStoreSqlBuilder builder(q, &dict_, lex_table_);
    return builder.Build(exec);
  };
  return TranslateQuery(query, in, opts, build, explain);
}

Status TripleStoreBackend::EncodeBackendSection(std::string* out) const {
  persist::PutString(out, lex_table_);
  return Status::OK();
}

Status TripleStoreBackend::DecodeBackendSection(persist::ByteReader* in) {
  RDFREL_ASSIGN_OR_RETURN(std::string_view lex, in->ReadString());
  lex_table_ = std::string(lex);
  return Status::OK();
}

}  // namespace rdfrel::store
