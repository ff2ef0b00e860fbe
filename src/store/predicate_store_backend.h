#ifndef RDFREL_STORE_PREDICATE_STORE_BACKEND_H_
#define RDFREL_STORE_PREDICATE_STORE_BACKEND_H_

/// \file predicate_store_backend.h
/// Baseline 2 (paper §2): the predicate-oriented (vertical-partitioning /
/// C-store-style [2]) layout — one 2-column relation per predicate — with
/// its own SPARQL-to-SQL translation (Figure 2d).

#include <memory>
#include <string>
#include <unordered_map>

#include "opt/statistics.h"
#include "persist/manager.h"
#include "rdf/graph.h"
#include "sql/database.h"
#include "store/backend_util.h"
#include "store/sparql_store.h"

namespace rdfrel::store {

struct PredicateStoreOptions {
  bool index_entry = true;
  bool index_value = true;
  bool build_lex = true;
  size_t stats_top_k = 1000;
  /// Variable-predicate patterns expand to a UNION ALL over every predicate
  /// table; beyond this many predicates the query is rejected (mirroring
  /// the scalability pain the paper ascribes to this layout).
  size_t max_union_predicates = 512;
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
};

/// Immutable after Load: the read surface is thread-safe without locking,
/// and translated plans are memoized in the shared PlanCache.
class PredicateStoreBackend final : public SparqlStore {
 public:
  static constexpr const char* kBackendKind = "predicate";

  static Result<std::unique_ptr<PredicateStoreBackend>> Load(
      rdf::Graph graph, const PredicateStoreOptions& options = {});

  /// Opens a persisted predicate store. The backend is immutable after
  /// Load, so recovery is snapshot-only (its WAL is always empty).
  static Result<std::unique_ptr<PredicateStoreBackend>> Open(
      const std::string& dir, const PersistOptions& persist_opts = {},
      const PredicateStoreOptions& options = {});
  static Result<std::unique_ptr<PredicateStoreBackend>> OpenFromPlan(
      persist::RecoveryPlan plan, const PersistOptions& persist_opts,
      const PredicateStoreOptions& options);

  /// Writes the initial snapshot generation into \p dir.
  Status EnablePersistence(const std::string& dir,
                           const PersistOptions& opts = {});
  bool persistent() const { return persist_ != nullptr; }

  // Streaming primitive; the materializing overload comes from the base.
  Status QueryWith(std::string_view sparql, const QueryOptions& opts,
                   RowSink& sink) override;
  using SparqlStore::QueryWith;
  Result<std::string> TranslateWith(std::string_view sparql,
                                    const QueryOptions& opts) override;
  Result<Explanation> Explain(std::string_view sparql,
                              const QueryOptions& opts = {}) override;
  util::CacheStats plan_cache_stats() const override {
    return plan_cache_.stats();
  }
  std::string name() const override { return "Predicate-oriented"; }
  const rdf::Dictionary& dictionary() const override { return dict_; }

  // Durability surface (SparqlStore):
  Status Checkpoint() override;
  Status Flush() override;
  Status Close() override;
  persist::PersistStats persist_stats() const override;

  sql::Database& database() { return db_; }
  size_t num_predicate_tables() const { return tables_.size(); }

 private:
  PredicateStoreBackend() = default;

  Result<persist::SnapshotSections> SnapshotState() const;

  /// The shared optimizer pipeline plus this layout's SQL builder;
  /// fills \p explain when non-null.
  Result<translate::TranslatedQuery> Translate(
      const sparql::Query& query, const QueryOptions& opts,
      Explanation* explain = nullptr) const;
  Result<std::shared_ptr<const CachedPlan>> GetOrBuildPlan(
      std::string_view sparql, const QueryOptions& opts);

  sql::Database db_;
  rdf::Dictionary dict_;
  opt::Statistics stats_;
  std::string lex_table_;
  std::unordered_map<uint64_t, std::string> tables_;  // pred id -> table
  PredicateStoreOptions options_;
  PlanCache plan_cache_;
  std::unique_ptr<persist::PersistenceManager> persist_;
};

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_PREDICATE_STORE_BACKEND_H_
