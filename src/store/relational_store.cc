#include "store/relational_store.h"

#include "persist/serializer.h"
#include "sparql/parser.h"

namespace rdfrel::store {

namespace {

persist::Env* EnvOf(const PersistOptions& opts) {
  return opts.env != nullptr ? opts.env : persist::Env::Default();
}

bool HasPropertyPaths(const sparql::Query& query) {
  std::vector<const sparql::TriplePattern*> triples;
  query.where->CollectTriples(&triples);
  for (const auto* t : triples) {
    if (t->path_mod != sparql::PathMod::kNone) return true;
  }
  return false;
}

Result<std::string_view> Section(const persist::RecoveryPlan& plan,
                                 persist::SnapshotSection id) {
  auto it = plan.sections.find(static_cast<uint32_t>(id));
  if (it == plan.sections.end()) {
    return Status::DataLoss("snapshot missing section " +
                            std::to_string(static_cast<uint32_t>(id)));
  }
  return std::string_view(it->second);
}

}  // namespace

Result<persist::RecoveryPlan> RelationalStore::ScanForRecovery(
    const std::string& dir, const PersistOptions& opts) {
  return persist::PersistenceManager::ScanForRecovery(EnvOf(opts), dir);
}

Status RelationalStore::WithTranslation(
    const sparql::Query& query, const QueryOptions& opts,
    Explanation* explain,
    const std::function<Status(translate::TranslatedQuery)>& then) {
  // Two explicit branches instead of a deferred-lock dance: the analysis
  // can follow each RAII guard.
  if (HasPropertyPaths(query)) {
    util::WriterLock lock(&mutex_);
    RDFREL_RETURN_NOT_OK(PreparePaths(query));
    RDFREL_ASSIGN_OR_RETURN(translate::TranslatedQuery tq,
                            Translate(query, opts, explain));
    return then(std::move(tq));
  }
  util::ReaderLock lock(&mutex_);
  RDFREL_ASSIGN_OR_RETURN(translate::TranslatedQuery tq,
                          Translate(query, opts, explain));
  return then(std::move(tq));
}

Status RelationalStore::WithPlan(
    std::string_view sparql, const QueryOptions& opts,
    const std::function<Status(const CachedPlan&)>& use) {
  const std::string key = PlanCacheKey(sparql, opts);
  {
    util::ReaderLock lock(&mutex_);
    // Any derived tables the plan reads exist for as long as its entry:
    // writes drop both under the writer lock.
    if (auto plan = plan_cache_.Get(key)) return use(*plan);
  }
  RDFREL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  return WithTranslation(
      query, opts, nullptr, [&](translate::TranslatedQuery tq) {
        auto plan = MakeCachedPlan(std::move(query), std::move(tq));
        plan_cache_.Put(key, plan);
        return use(*plan);
      });
}

Status RelationalStore::QueryWith(std::string_view sparql,
                                  const QueryOptions& opts, RowSink& sink) {
  return WithPlan(sparql, opts, [&](const CachedPlan& plan) {
    return ExecutePlanStreaming(&db_, plan, dict_, opts, sink);
  });
}

Result<std::string> RelationalStore::TranslateWith(std::string_view sparql,
                                                   const QueryOptions& opts) {
  std::string sql;
  RDFREL_RETURN_NOT_OK(WithPlan(sparql, opts, [&](const CachedPlan& plan) {
    sql = plan.sql;
    return Status::OK();
  }));
  return sql;
}

Result<SparqlStore::Explanation> RelationalStore::Explain(
    std::string_view sparql, const QueryOptions& opts) {
  RDFREL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql));
  Explanation ex;
  RDFREL_RETURN_NOT_OK(
      WithTranslation(query, opts, &ex, [&](translate::TranslatedQuery) {
        return ProfileExplained(&db_, &ex);
      }));
  return ex;
}

Status RelationalStore::PreparePaths(const sparql::Query& /*query*/) {
  return Status::Unsupported(
      "property paths are supported by the DB2RDF store only");
}

bool RelationalStore::IsDerivedTable(const std::string& /*table*/) const {
  return false;
}

Status RelationalStore::ReplayWal(
    const std::vector<persist::WalRecord>& records) {
  if (!records.empty()) {
    return Status::DataLoss(std::string(backend_kind_) +
                            " store WAL is expected to be empty (backend is "
                            "immutable)");
  }
  return Status::OK();
}

Result<persist::SnapshotSections> RelationalStore::SnapshotState() const {
  persist::SnapshotSections sections;
  sections[static_cast<uint32_t>(persist::SnapshotSection::kDictionary)] =
      persist::EncodeDictionary(dict_);
  sections[static_cast<uint32_t>(persist::SnapshotSection::kStatistics)] =
      persist::EncodeStatistics(stats_);
  // Derived tables are rebuilt lazily after recovery, so they stay out.
  std::vector<std::string> names;
  for (auto& name : db_.catalog().TableNames()) {
    if (!IsDerivedTable(name)) names.push_back(std::move(name));
  }
  std::string cat;
  persist::PutU32(&cat, static_cast<uint32_t>(names.size()));
  for (const auto& name : names) {
    persist::EncodeTable(&cat, *db_.catalog().GetTable(name).value());
  }
  sections[static_cast<uint32_t>(persist::SnapshotSection::kCatalog)] =
      std::move(cat);
  std::string b;
  RDFREL_RETURN_NOT_OK(EncodeBackendSection(&b));
  sections[static_cast<uint32_t>(persist::SnapshotSection::kBackend)] =
      std::move(b);
  return sections;
}

Status RelationalStore::EnablePersistence(const std::string& dir,
                                          const PersistOptions& opts) {
  util::WriterLock lock(&mutex_);
  if (persist_ != nullptr) {
    return Status::AlreadyExists("persistence already attached");
  }
  RDFREL_ASSIGN_OR_RETURN(persist::SnapshotSections sections, SnapshotState());
  RDFREL_ASSIGN_OR_RETURN(
      persist_, persist::PersistenceManager::Create(
                    EnvOf(opts), dir, backend_kind_, sections, opts.wal));
  return Status::OK();
}

bool RelationalStore::persistent() const {
  util::ReaderLock lock(&mutex_);
  return persist_ != nullptr;
}

Status RelationalStore::Checkpoint() {
  util::WriterLock lock(&mutex_);
  if (persist_ == nullptr) {
    return Status::Unsupported("no persistence attached to this store");
  }
  RDFREL_ASSIGN_OR_RETURN(persist::SnapshotSections sections, SnapshotState());
  return persist_->Checkpoint(sections);
}

Status RelationalStore::Flush() {
  util::ReaderLock lock(&mutex_);
  return persist_ != nullptr ? persist_->Flush() : Status::OK();
}

Status RelationalStore::Close() {
  util::WriterLock lock(&mutex_);
  if (persist_ == nullptr) return Status::OK();
  Status s = persist_->Close();
  persist_.reset();
  return s;
}

persist::PersistStats RelationalStore::persist_stats() const {
  util::ReaderLock lock(&mutex_);
  return persist_ != nullptr ? persist_->stats() : persist::PersistStats{};
}

Status RelationalStore::Recover(persist::RecoveryPlan plan,
                                const PersistOptions& opts) {
  if (plan.backend_kind != backend_kind_) {
    return Status::InvalidArgument("store directory holds a '" +
                                   plan.backend_kind + "' store, not " +
                                   backend_kind_);
  }
  RDFREL_ASSIGN_OR_RETURN(
      std::string_view dict_bytes,
      Section(plan, persist::SnapshotSection::kDictionary));
  RDFREL_ASSIGN_OR_RETURN(dict_, persist::DecodeDictionary(dict_bytes));
  RDFREL_ASSIGN_OR_RETURN(
      std::string_view stats_bytes,
      Section(plan, persist::SnapshotSection::kStatistics));
  RDFREL_ASSIGN_OR_RETURN(stats_, persist::DecodeStatistics(stats_bytes));
  RDFREL_ASSIGN_OR_RETURN(std::string_view cat_bytes,
                          Section(plan, persist::SnapshotSection::kCatalog));
  RDFREL_RETURN_NOT_OK(persist::DecodeCatalogInto(cat_bytes, &db_.catalog()));
  RDFREL_ASSIGN_OR_RETURN(std::string_view backend_bytes,
                          Section(plan, persist::SnapshotSection::kBackend));
  persist::ByteReader r(backend_bytes);
  RDFREL_RETURN_NOT_OK(DecodeBackendSection(&r));
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after backend section");
  }
  {
    // Construction-time writer lock: no other thread can see the store
    // yet, but replay calls the same REQUIRES(mutex_)-annotated helpers as
    // live mutations. Released before the probe below (QueryWith takes the
    // lock itself).
    util::WriterLock lock(&mutex_);
    RDFREL_RETURN_NOT_OK(ReplayWal(plan.records));
    // Recovery ends with a fresh checkpoint: torn tails never need
    // in-place truncation and corrupt generations leave the fallback
    // chain.
    RDFREL_ASSIGN_OR_RETURN(persist::SnapshotSections sections,
                            SnapshotState());
    RDFREL_ASSIGN_OR_RETURN(
        persist_, persist::PersistenceManager::Resume(
                      EnvOf(opts), plan.dir, plan, sections, opts.wal));
  }
  if (!opts.verify_on_recovery) return Status::OK();
  // Probe: run one verified query over a predicate known to the
  // statistics; any inconsistency between the rebuilt relations and the
  // optimizer's invariants fails the Open.
  for (const auto& [pid, count] : stats_.predicate_count_map()) {
    if (count == 0) continue;
    auto term = dict_.Decode(pid);
    if (!term.ok() || !term->is_iri()) continue;
    QueryOptions probe;
    probe.verify_plans = true;
    return QueryWith("SELECT ?s ?o WHERE { ?s <" + term->lexical() + "> ?o }",
                     probe)
        .status();
  }
  return Status::OK();
}

}  // namespace rdfrel::store
