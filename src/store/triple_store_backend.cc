#include "store/triple_store_backend.h"

#include "sparql/parser.h"
#include <unordered_set>

#include "persist/coding.h"
#include "persist/serializer.h"
#include "store/backend_util.h"
#include "util/hash.h"
#include "translate/sql_base.h"
#include "util/string_util.h"

namespace rdfrel::store {

namespace {

using opt::ExecKind;
using opt::ExecNode;
using translate::PatternSqlBuilderBase;
using translate::VarColumn;

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
    if (t.path_mod != sparql::PathMod::kNone) {
      return Status::Unsupported(
          "property paths are supported by the DB2RDF store only");
    }
    std::string from = "triples AS T";
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
    const Component comps[3] = {{&t.subject, "T.subj"},
                                {&t.predicate, "T.pred"},
                                {&t.object, "T.obj"}};
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
          // Repeated occurrence: equal the merged value exactly.
          wheres.push_back(std::string(c.column) + " = " + seen->second);
          continue;
        }
        // SPARQL-compatible join: a maybe-NULL binding matches anything
        // and takes this triple's (always defined) value where NULL.
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
        // Repeated variable within the triple (?x p ?x).
        wheres.push_back(std::string(c.column) + " = " + new_vars[var]);
      } else {
        new_vars[var] = c.column;
      }
    }

    std::string select = CarryList(cur_, overrides);
    for (const auto& [var, expr] : new_vars) {
      if (!select.empty()) select += ", ";
      select += expr + " AS " + VarColumn(var);
    }
    if (select.empty()) select = "T.subj AS dummy_subj";
    std::string body = "SELECT " + select + " FROM " + from;
    if (!wheres.empty()) body += " WHERE " + JoinStrings(wheres, " AND ");
    cur_ = NewCte(body);
    for (const auto& [var, expr] : new_vars) {
      bound_[var] = translate::BoundVar{VarColumn(var), false};
    }
    for (const auto& var : resolved) bound_[var].maybe_null = false;
    return Status::OK();
  }
};

}  // namespace

Result<std::unique_ptr<TripleStoreBackend>> TripleStoreBackend::Load(
    rdf::Graph graph, const TripleStoreOptions& options) {
  auto store =
      std::unique_ptr<TripleStoreBackend>(new TripleStoreBackend());
  store->stats_ = opt::Statistics::FromGraph(graph, options.stats_top_k);
  store->plan_cache_ = PlanCache(options.plan_cache_capacity);
  RDFREL_ASSIGN_OR_RETURN(
      sql::Table * table,
      store->db_.catalog().CreateTable(
          "triples", sql::Schema({{"subj", sql::ValueType::kInt64},
                                  {"pred", sql::ValueType::kInt64},
                                  {"obj", sql::ValueType::kInt64}})));
  // RDF graphs are sets: duplicate triples collapse (matching the DB2RDF
  // loader's semantics).
  std::unordered_set<uint64_t> seen;
  for (const auto& t : graph.triples()) {
    uint64_t key = HashCombine(HashCombine(Mix64(t.subject), t.predicate),
                               t.object);
    if (!seen.insert(key).second) continue;
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

Result<std::shared_ptr<const CachedPlan>>
TripleStoreBackend::GetOrBuildPlan(std::string_view sparql,
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

Status TripleStoreBackend::QueryWith(std::string_view sparql,
                                     const QueryOptions& opts,
                                     RowSink& sink) {
  RDFREL_ASSIGN_OR_RETURN(auto plan, GetOrBuildPlan(sparql, opts));
  return ExecutePlanStreaming(&db_, *plan, dict_, opts, sink);
}

Result<std::string> TripleStoreBackend::TranslateWith(
    std::string_view sparql, const QueryOptions& opts) {
  RDFREL_ASSIGN_OR_RETURN(auto plan, GetOrBuildPlan(sparql, opts));
  return plan->sql;
}

Result<SparqlStore::Explanation> TripleStoreBackend::Explain(
    std::string_view sparql, const QueryOptions& opts) {
  RDFREL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  Explanation ex;
  RDFREL_RETURN_NOT_OK(Translate(query, opts, &ex).status());
  RDFREL_RETURN_NOT_OK(ProfileExplained(&db_, &ex));
  return ex;
}

Result<persist::SnapshotSections> TripleStoreBackend::SnapshotState() const {
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
  sections[static_cast<uint32_t>(persist::SnapshotSection::kBackend)] =
      std::move(b);
  return sections;
}

Status TripleStoreBackend::EnablePersistence(const std::string& dir,
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

Result<std::unique_ptr<TripleStoreBackend>> TripleStoreBackend::OpenFromPlan(
    persist::RecoveryPlan plan, const PersistOptions& persist_opts,
    const TripleStoreOptions& options) {
  if (plan.backend_kind != kBackendKind) {
    return Status::InvalidArgument("store directory holds a '" +
                                   plan.backend_kind + "' store, not " +
                                   kBackendKind);
  }
  if (!plan.records.empty()) {
    return Status::DataLoss(
        "triple-store WAL is expected to be empty (backend is immutable)");
  }
  auto store = std::unique_ptr<TripleStoreBackend>(new TripleStoreBackend());
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

Result<std::unique_ptr<TripleStoreBackend>> TripleStoreBackend::Open(
    const std::string& dir, const PersistOptions& persist_opts,
    const TripleStoreOptions& options) {
  persist::Env* env =
      persist_opts.env != nullptr ? persist_opts.env : persist::Env::Default();
  RDFREL_ASSIGN_OR_RETURN(persist::RecoveryPlan plan,
                          persist::PersistenceManager::ScanForRecovery(env,
                                                                       dir));
  return OpenFromPlan(std::move(plan), persist_opts, options);
}

Status TripleStoreBackend::Checkpoint() {
  if (persist_ == nullptr) {
    return Status::Unsupported("no persistence attached to this store");
  }
  RDFREL_ASSIGN_OR_RETURN(persist::SnapshotSections sections, SnapshotState());
  return persist_->Checkpoint(sections);
}

Status TripleStoreBackend::Flush() {
  return persist_ != nullptr ? persist_->Flush() : Status::OK();
}

Status TripleStoreBackend::Close() {
  if (persist_ == nullptr) return Status::OK();
  Status s = persist_->Close();
  persist_.reset();
  return s;
}

persist::PersistStats TripleStoreBackend::persist_stats() const {
  return persist_ != nullptr ? persist_->stats() : persist::PersistStats{};
}

}  // namespace rdfrel::store
