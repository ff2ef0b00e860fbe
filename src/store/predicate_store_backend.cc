#include "store/predicate_store_backend.h"

#include "persist/coding.h"
#include "persist/serializer.h"
#include "sparql/parser.h"
#include "store/backend_util.h"
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
    if (t.path_mod != sparql::PathMod::kNone) {
      return Status::Unsupported(
          "property paths are supported by the DB2RDF store only");
    }
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
    RDFREL_ASSIGN_OR_RETURN(std::string cte,
                            EmitOverTable(it->second, t, std::string()));
    cur_ = cte;
    return Status::OK();
  }

 private:
  /// Emits access over one predicate table; \p pred_id_expr non-empty adds
  /// a constant predicate-id output column (variable-predicate branches).
  Result<std::string> EmitOverTable(const std::string& table,
                                    const sparql::TriplePattern& t,
                                    const std::string& pred_id_expr) {
    std::string from = table + " AS T";
    if (!cur_.empty()) from += ", " + cur_;
    std::vector<std::string> wheres;
    std::map<std::string, std::string> new_vars;
    std::map<std::string, std::string> overrides;
    std::vector<std::string> resolved;
    std::map<std::string, std::string> seen_bound;
    struct Component {
      const sparql::TermOrVar* tv;
      const char* column;
    };
    const Component comps[2] = {{&t.subject, "T.entry"},
                                {&t.object, "T.val"}};
    for (const auto& c : comps) {
      if (!c.tv->is_var) {
        wheres.push_back(std::string(c.column) + " = " +
                         std::to_string(IdOf(c.tv->term)));
        continue;
      }
      const std::string& var = c.tv->var;
      if (IsBound(var)) {
        auto seen = seen_bound.find(var);
        if (seen != seen_bound.end()) {
          wheres.push_back(std::string(c.column) + " = " + seen->second);
          continue;
        }
        wheres.push_back(CompatEq(c.column, var));
        std::string merged = CompatMerge(c.column, var);
        if (!merged.empty()) {
          overrides[var] = merged;
          resolved.push_back(var);
          seen_bound[var] = merged;
        } else {
          seen_bound[var] = BoundCol(var);
        }
      } else if (new_vars.count(var)) {
        wheres.push_back(std::string(c.column) + " = " + new_vars[var]);
      } else {
        new_vars[var] = c.column;
      }
    }
    // The predicate variable may also repeat a subject/object variable.
    if (!pred_id_expr.empty()) {
      const std::string& pvar = t.predicate.var;
      if (IsBound(pvar)) {
        auto seen = seen_bound.find(pvar);
        if (seen != seen_bound.end()) {
          wheres.push_back(pred_id_expr + " = " + seen->second);
        } else {
          wheres.push_back(CompatEq(pred_id_expr, pvar));
          std::string merged = CompatMerge(pred_id_expr, pvar);
          if (!merged.empty()) {
            overrides[pvar] = merged;
            resolved.push_back(pvar);
            seen_bound[pvar] = merged;
          } else {
            seen_bound[pvar] = BoundCol(pvar);
          }
        }
      } else if (new_vars.count(pvar)) {
        wheres.push_back(pred_id_expr + " = " + new_vars[pvar]);
      } else {
        new_vars[pvar] = pred_id_expr;
      }
    }
    std::string select = CarryList(cur_, overrides);
    for (const auto& [var, expr] : new_vars) {
      if (!select.empty()) select += ", ";
      select += expr + " AS " + VarColumn(var);
    }
    if (select.empty()) select = "T.entry AS dummy_entry";
    std::string body = "SELECT " + select + " FROM " + from;
    if (!wheres.empty()) body += " WHERE " + JoinStrings(wheres, " AND ");
    std::string name = NewCte(body);
    for (const auto& [var, expr] : new_vars) {
      bound_[var] = translate::BoundVar{VarColumn(var), false};
    }
    for (const auto& var : resolved) bound_[var].maybe_null = false;
    return name;
  }

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
      RDFREL_ASSIGN_OR_RETURN(
          std::string cte,
          EmitOverTable(table, t, std::to_string(pid)));
      branch_ctes.push_back(cte);
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
  auto store =
      std::unique_ptr<PredicateStoreBackend>(new PredicateStoreBackend());
  store->options_ = options;
  store->stats_ = opt::Statistics::FromGraph(graph, options.stats_top_k);
  store->plan_cache_ = PlanCache(options.plan_cache_capacity);
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

Result<std::shared_ptr<const CachedPlan>>
PredicateStoreBackend::GetOrBuildPlan(std::string_view sparql,
                                      const QueryOptions& opts) {
  const std::string key = PlanCacheKey(sparql, opts);
  if (auto plan = plan_cache_.Get(key)) return plan;
  RDFREL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  RDFREL_ASSIGN_OR_RETURN(translate::TranslatedQuery tq,
                          Translate(query, opts));
  auto plan = MakeCachedPlan(std::move(query), std::move(tq));
  plan_cache_.Put(key, plan);
  return plan;
}

Status PredicateStoreBackend::QueryWith(std::string_view sparql,
                                        const QueryOptions& opts,
                                        RowSink& sink) {
  RDFREL_ASSIGN_OR_RETURN(auto plan, GetOrBuildPlan(sparql, opts));
  return ExecutePlanStreaming(&db_, *plan, dict_, opts, sink);
}

Result<std::string> PredicateStoreBackend::TranslateWith(
    std::string_view sparql, const QueryOptions& opts) {
  RDFREL_ASSIGN_OR_RETURN(auto plan, GetOrBuildPlan(sparql, opts));
  return plan->sql;
}

Result<SparqlStore::Explanation> PredicateStoreBackend::Explain(
    std::string_view sparql, const QueryOptions& opts) {
  RDFREL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  Explanation ex;
  RDFREL_RETURN_NOT_OK(Translate(query, opts, &ex).status());
  RDFREL_RETURN_NOT_OK(ProfileExplained(&db_, &ex));
  return ex;
}

Result<persist::SnapshotSections> PredicateStoreBackend::SnapshotState()
    const {
  persist::SnapshotSections sections;
  sections[static_cast<uint32_t>(persist::SnapshotSection::kDictionary)] =
      persist::EncodeDictionary(dict_);
  sections[static_cast<uint32_t>(persist::SnapshotSection::kStatistics)] =
      persist::EncodeStatistics(stats_);
  std::string cat;
  std::vector<std::string> names = db_.catalog().TableNames();
  persist::PutU32(&cat, static_cast<uint32_t>(names.size()));
  for (const auto& name : names) {
    persist::EncodeTable(&cat, *db_.catalog().GetTable(name).value());
  }
  sections[static_cast<uint32_t>(persist::SnapshotSection::kCatalog)] =
      std::move(cat);
  std::string b;
  persist::PutString(&b, lex_table_);
  persist::PutU64(&b, options_.max_union_predicates);
  persist::PutU64(&b, tables_.size());
  for (const auto& [pid, table] : tables_) {
    persist::PutU64(&b, pid);
    persist::PutString(&b, table);
  }
  sections[static_cast<uint32_t>(persist::SnapshotSection::kBackend)] =
      std::move(b);
  return sections;
}

Status PredicateStoreBackend::EnablePersistence(const std::string& dir,
                                                const PersistOptions& opts) {
  if (persist_ != nullptr) {
    return Status::AlreadyExists("persistence already attached");
  }
  persist::Env* env = opts.env != nullptr ? opts.env : persist::Env::Default();
  RDFREL_ASSIGN_OR_RETURN(persist::SnapshotSections sections, SnapshotState());
  RDFREL_ASSIGN_OR_RETURN(
      persist_, persist::PersistenceManager::Create(env, dir, kBackendKind,
                                                    sections, opts.wal));
  return Status::OK();
}

Result<std::unique_ptr<PredicateStoreBackend>>
PredicateStoreBackend::OpenFromPlan(persist::RecoveryPlan plan,
                                    const PersistOptions& persist_opts,
                                    const PredicateStoreOptions& options) {
  if (plan.backend_kind != kBackendKind) {
    return Status::InvalidArgument("store directory holds a '" +
                                   plan.backend_kind + "' store, not " +
                                   kBackendKind);
  }
  if (!plan.records.empty()) {
    return Status::DataLoss(
        "predicate-store WAL is expected to be empty (backend is immutable)");
  }
  auto store =
      std::unique_ptr<PredicateStoreBackend>(new PredicateStoreBackend());
  store->options_ = options;
  store->plan_cache_ = PlanCache(options.plan_cache_capacity);
  auto section = [&plan](persist::SnapshotSection id) -> Result<std::string> {
    auto it = plan.sections.find(static_cast<uint32_t>(id));
    if (it == plan.sections.end()) {
      return Status::DataLoss("snapshot missing section " +
                              std::to_string(static_cast<uint32_t>(id)));
    }
    return it->second;
  };
  RDFREL_ASSIGN_OR_RETURN(std::string dict_bytes,
                          section(persist::SnapshotSection::kDictionary));
  RDFREL_ASSIGN_OR_RETURN(store->dict_, persist::DecodeDictionary(dict_bytes));
  RDFREL_ASSIGN_OR_RETURN(std::string stats_bytes,
                          section(persist::SnapshotSection::kStatistics));
  RDFREL_ASSIGN_OR_RETURN(store->stats_,
                          persist::DecodeStatistics(stats_bytes));
  RDFREL_ASSIGN_OR_RETURN(std::string cat_bytes,
                          section(persist::SnapshotSection::kCatalog));
  RDFREL_RETURN_NOT_OK(
      persist::DecodeCatalogInto(cat_bytes, &store->db_.catalog()));
  RDFREL_ASSIGN_OR_RETURN(std::string backend_bytes,
                          section(persist::SnapshotSection::kBackend));
  persist::ByteReader r(backend_bytes);
  RDFREL_ASSIGN_OR_RETURN(std::string_view lex, r.ReadString());
  store->lex_table_ = std::string(lex);
  RDFREL_ASSIGN_OR_RETURN(uint64_t max_union, r.ReadU64());
  store->options_.max_union_predicates = static_cast<size_t>(max_union);
  RDFREL_ASSIGN_OR_RETURN(uint64_t n_tables, r.ReadU64());
  for (uint64_t i = 0; i < n_tables; ++i) {
    RDFREL_ASSIGN_OR_RETURN(uint64_t pid, r.ReadU64());
    RDFREL_ASSIGN_OR_RETURN(std::string_view table, r.ReadString());
    store->tables_.emplace(pid, std::string(table));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after backend section");
  }

  persist::Env* env =
      persist_opts.env != nullptr ? persist_opts.env : persist::Env::Default();
  RDFREL_ASSIGN_OR_RETURN(persist::SnapshotSections sections,
                          store->SnapshotState());
  RDFREL_ASSIGN_OR_RETURN(
      store->persist_,
      persist::PersistenceManager::Resume(env, plan.dir, plan, sections,
                                          persist_opts.wal));
  return store;
}

Result<std::unique_ptr<PredicateStoreBackend>> PredicateStoreBackend::Open(
    const std::string& dir, const PersistOptions& persist_opts,
    const PredicateStoreOptions& options) {
  persist::Env* env =
      persist_opts.env != nullptr ? persist_opts.env : persist::Env::Default();
  RDFREL_ASSIGN_OR_RETURN(persist::RecoveryPlan plan,
                          persist::PersistenceManager::ScanForRecovery(env,
                                                                       dir));
  return OpenFromPlan(std::move(plan), persist_opts, options);
}

Status PredicateStoreBackend::Checkpoint() {
  if (persist_ == nullptr) {
    return Status::Unsupported("no persistence attached to this store");
  }
  RDFREL_ASSIGN_OR_RETURN(persist::SnapshotSections sections, SnapshotState());
  return persist_->Checkpoint(sections);
}

Status PredicateStoreBackend::Flush() {
  return persist_ != nullptr ? persist_->Flush() : Status::OK();
}

Status PredicateStoreBackend::Close() {
  if (persist_ == nullptr) return Status::OK();
  Status s = persist_->Close();
  persist_.reset();
  return s;
}

persist::PersistStats PredicateStoreBackend::persist_stats() const {
  return persist_ != nullptr ? persist_->stats() : persist::PersistStats{};
}

}  // namespace rdfrel::store
