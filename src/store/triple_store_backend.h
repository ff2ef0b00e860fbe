#ifndef RDFREL_STORE_TRIPLE_STORE_BACKEND_H_
#define RDFREL_STORE_TRIPLE_STORE_BACKEND_H_

/// \file triple_store_backend.h
/// Baseline 1 (paper §2): the skinny triple-store — one 3-column relation
/// `triples(subj, pred, obj)` — with its own SPARQL-to-SQL translation
/// (self-joins per triple pattern, as in Figure 2c).
///
/// The store is immutable after Load, so the whole read surface is
/// thread-safe without locking; translated plans are memoized in the
/// shared PlanCache.

#include <memory>
#include <string>

#include "opt/statistics.h"
#include "persist/manager.h"
#include "rdf/graph.h"
#include "sql/database.h"
#include "store/backend_util.h"
#include "store/sparql_store.h"

namespace rdfrel::store {

struct TripleStoreOptions {
  bool index_subject = true;
  bool index_object = true;
  bool index_predicate = false;  ///< the paper indexes only entry columns
  bool build_lex = true;
  size_t stats_top_k = 1000;
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
};

class TripleStoreBackend final : public SparqlStore {
 public:
  static constexpr const char* kBackendKind = "triple";

  static Result<std::unique_ptr<TripleStoreBackend>> Load(
      rdf::Graph graph, const TripleStoreOptions& options = {});

  /// Opens a persisted triple store. The backend is immutable after Load,
  /// so recovery is snapshot-only (its WAL is always empty).
  static Result<std::unique_ptr<TripleStoreBackend>> Open(
      const std::string& dir, const PersistOptions& persist_opts = {},
      const TripleStoreOptions& options = {});
  static Result<std::unique_ptr<TripleStoreBackend>> OpenFromPlan(
      persist::RecoveryPlan plan, const PersistOptions& persist_opts,
      const TripleStoreOptions& options);

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
  std::string name() const override { return "Triple-store"; }
  const rdf::Dictionary& dictionary() const override { return dict_; }

  // Durability surface (SparqlStore):
  Status Checkpoint() override;
  Status Flush() override;
  Status Close() override;
  persist::PersistStats persist_stats() const override;

  sql::Database& database() { return db_; }

 private:
  TripleStoreBackend() = default;

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
  PlanCache plan_cache_;
  std::unique_ptr<persist::PersistenceManager> persist_;
};

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_TRIPLE_STORE_BACKEND_H_
