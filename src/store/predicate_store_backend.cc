#include "store/predicate_store_backend.h"

#include "translate/sql_base.h"
#include "util/string_util.h"

namespace rdfrel::store {

namespace {

using opt::ExecKind;
using opt::ExecNode;
using translate::PatternSqlBuilderBase;
using translate::VarColumn;

/// Figure 2d-style translation: FROM the per-predicate binary relation.
class PredicateStoreSqlBuilder final : public PatternSqlBuilderBase {
 public:
  PredicateStoreSqlBuilder(
      const sparql::Query& query, const rdf::Dictionary* dict,
      std::string lex_table,
      const std::unordered_map<uint64_t, std::string>* tables,
      size_t max_union)
      : PatternSqlBuilderBase(query, dict, std::move(lex_table)),
        tables_(tables),
        max_union_(max_union) {}

 protected:
  Status EmitAccess(const ExecNode& node) override {
    if (node.kind != ExecKind::kTriple) {
      return Status::Internal(
          "predicate-store plans must not contain merged stars");
    }
    const sparql::TriplePattern& t = *node.triple;
    if (t.predicate.is_var) return EmitVariablePredicate(t);

    uint64_t pid = dict_->Lookup(t.predicate.term);
    auto it = tables_->find(pid);
    if (it == tables_->end()) {
      // Unknown predicate: provably empty. Emit a never-true select that
      // still binds the triple's variables (as NULL columns) so downstream
      // references resolve.
      std::string source = cur_;
      if (source.empty()) {
        if (tables_->empty()) {
          return Status::NotFound("store has no predicate tables");
        }
        source = tables_->begin()->second;
      }
      std::string select = CarryList(cur_.empty() ? source : cur_);
      for (const auto* tv : {&t.subject, &t.object}) {
        if (tv->is_var && !bound_.count(tv->var)) {
          if (!select.empty()) select += ", ";
          select += "NULL AS " + VarColumn(tv->var);
          bound_[tv->var] = translate::BoundVar{VarColumn(tv->var), true};
        }
      }
      if (select.empty()) select = "1 AS dummy_one";
      cur_ = NewCte("SELECT " + select + " FROM " + source +
                    " WHERE 1 = 0");
      return Status::OK();
    }
    EmitBinaryAccess(it->second, t);
    return Status::OK();
  }

 private:
  Status EmitVariablePredicate(const sparql::TriplePattern& t) {
    if (tables_->size() > max_union_) {
      return Status::Unsupported(
          "variable predicate over " + std::to_string(tables_->size()) +
          " predicate tables exceeds the UNION limit (" +
          std::to_string(max_union_) + ")");
    }
    // Each branch is emitted as its own CTE (restoring context between
    // branches), then unioned.
    std::string cur0 = cur_;
    auto bound0 = bound_;
    std::vector<std::string> branch_ctes;
    std::map<std::string, translate::BoundVar> final_bound;
    for (const auto& [pid, table] : *tables_) {
      cur_ = cur0;
      bound_ = bound0;
      EmitBinaryAccess(table, t, std::to_string(pid));
      branch_ctes.push_back(cur_);
      // Branches share the binding shape; a binding that stays maybe_null
      // in any branch stays maybe_null overall.
      for (const auto& [var, bv] : bound_) {
        auto it = final_bound.find(var);
        if (it == final_bound.end()) {
          final_bound[var] = bv;
        } else {
          it->second.maybe_null = it->second.maybe_null || bv.maybe_null;
        }
      }
    }
    std::vector<std::string> selects;
    std::string cols;
    for (const auto& [var, bv] : final_bound) {
      if (!cols.empty()) cols += ", ";
      cols += bv.column;
    }
    for (const auto& cte : branch_ctes) {
      selects.push_back("SELECT " + cols + " FROM " + cte);
    }
    cur_ = NewCte(JoinStrings(selects, " UNION ALL "));
    bound_ = final_bound;
    return Status::OK();
  }

  const std::unordered_map<uint64_t, std::string>* tables_;
  size_t max_union_;
};

}  // namespace

Result<std::unique_ptr<PredicateStoreBackend>> PredicateStoreBackend::Load(
    rdf::Graph graph, const PredicateStoreOptions& options) {
  auto store = std::unique_ptr<PredicateStoreBackend>(
      new PredicateStoreBackend(options));
  store->stats_ = opt::Statistics::FromGraph(graph, options.stats_top_k);
  // One relation per distinct predicate. Duplicate triples collapse (RDF
  // set semantics, matching the DB2RDF loader).
  for (const auto& t : graph.DistinctTriples()) {
    auto [it, inserted] = store->tables_.try_emplace(
        t.predicate, "p" + std::to_string(t.predicate));
    if (inserted) {
      RDFREL_RETURN_NOT_OK(
          store->db_.catalog()
              .CreateTable(it->second,
                           sql::Schema({{"entry", sql::ValueType::kInt64},
                                        {"val", sql::ValueType::kInt64}}))
              .status());
    }
    RDFREL_ASSIGN_OR_RETURN(sql::Table * table,
                            store->db_.catalog().GetTable(it->second));
    RDFREL_RETURN_NOT_OK(
        table
            ->Insert({sql::Value::Int(static_cast<int64_t>(t.subject)),
                      sql::Value::Int(static_cast<int64_t>(t.object))})
            .status());
  }
  for (const auto& [pid, name] : store->tables_) {
    RDFREL_ASSIGN_OR_RETURN(sql::Table * table,
                            store->db_.catalog().GetTable(name));
    if (options.index_entry) {
      RDFREL_RETURN_NOT_OK(table->CreateIndex(name + "_entry", "entry",
                                              sql::IndexKind::kBTree));
    }
    if (options.index_value) {
      RDFREL_RETURN_NOT_OK(
          table->CreateIndex(name + "_val", "val", sql::IndexKind::kBTree));
    }
  }
  if (options.build_lex) {
    store->lex_table_ = "lex";
    RDFREL_RETURN_NOT_OK(
        BuildLexTable(&store->db_, graph.dictionary(), store->lex_table_));
  }
  store->dict_ = std::move(graph.dictionary());
  return store;
}

Result<translate::TranslatedQuery> PredicateStoreBackend::Translate(
    const sparql::Query& query, const QueryOptions& opts,
    Explanation* explain) const {
  OptimizerInputs in;
  in.stats = &stats_;
  in.dict = &dict_;
  auto build = [this](const sparql::Query& q, const opt::ExecNode& exec) {
    PredicateStoreSqlBuilder builder(q, &dict_, lex_table_, &tables_,
                                     options_.max_union_predicates);
    return builder.Build(exec);
  };
  return TranslateQuery(query, in, opts, build, explain);
}

Status PredicateStoreBackend::EncodeBackendSection(std::string* out) const {
  persist::PutString(out, lex_table_);
  persist::PutU64(out, options_.max_union_predicates);
  persist::PutU64(out, tables_.size());
  for (const auto& [pid, table] : tables_) {
    persist::PutU64(out, pid);
    persist::PutString(out, table);
  }
  return Status::OK();
}

Status PredicateStoreBackend::DecodeBackendSection(persist::ByteReader* in) {
  RDFREL_ASSIGN_OR_RETURN(std::string_view lex, in->ReadString());
  lex_table_ = std::string(lex);
  RDFREL_ASSIGN_OR_RETURN(uint64_t max_union, in->ReadU64());
  options_.max_union_predicates = static_cast<size_t>(max_union);
  RDFREL_ASSIGN_OR_RETURN(uint64_t n_tables, in->ReadU64());
  for (uint64_t i = 0; i < n_tables; ++i) {
    RDFREL_ASSIGN_OR_RETURN(uint64_t pid, in->ReadU64());
    RDFREL_ASSIGN_OR_RETURN(std::string_view table, in->ReadString());
    tables_.emplace(pid, std::string(table));
  }
  return Status::OK();
}

Result<std::unique_ptr<PredicateStoreBackend>> PredicateStoreBackend::Open(
    const std::string& dir, const PersistOptions& persist_opts,
    const PredicateStoreOptions& options) {
  RDFREL_ASSIGN_OR_RETURN(persist::RecoveryPlan plan,
                          ScanForRecovery(dir, persist_opts));
  return OpenFromPlan(std::move(plan), persist_opts, options);
}

Result<std::unique_ptr<PredicateStoreBackend>>
PredicateStoreBackend::OpenFromPlan(persist::RecoveryPlan plan,
                                    const PersistOptions& persist_opts,
                                    const PredicateStoreOptions& options) {
  auto store = std::unique_ptr<PredicateStoreBackend>(
      new PredicateStoreBackend(options));
  RDFREL_RETURN_NOT_OK(store->Recover(std::move(plan), persist_opts));
  return store;
}

}  // namespace rdfrel::store
