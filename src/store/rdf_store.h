#ifndef RDFREL_STORE_RDF_STORE_H_
#define RDFREL_STORE_RDF_STORE_H_

/// \file rdf_store.h
/// The top-level DB2RDF store: loads an RDF graph into the entity-oriented
/// relational layout and answers SPARQL through the hybrid optimizer and
/// the SPARQL-to-SQL translator. This is the library's primary public API.
///
/// Concurrency: any number of threads may call the SparqlStore read surface
/// (QueryWith / TranslateWith / Explain) concurrently; Insert and Delete
/// take the store's writer lock, update statistics, drop materialized
/// closure tables and invalidate the plan cache. See DESIGN.md
/// "Concurrency & caching".

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "opt/statistics.h"
#include "persist/manager.h"
#include "rdf/graph.h"
#include "schema/coloring_mapping.h"
#include "schema/loader.h"
#include "sql/database.h"
#include "store/backend_util.h"
#include "store/sparql_store.h"
#include "util/mutex.h"
#include "util/status.h"

namespace rdfrel::store {

/// Store construction options.
struct RdfStoreOptions {
  /// Predicate columns in DPH/RPH; 0 = derive from graph coloring (bounded
  /// by max_columns).
  uint32_t k_direct = 0;
  uint32_t k_reverse = 0;
  /// Upper bound on columns when deriving k via coloring.
  uint32_t max_columns = 64;
  /// Use graph coloring for predicate-to-column assignment; false = pure
  /// hashing (paper §2.2's no-sample mode).
  bool use_coloring = true;
  /// Composed hash functions for the hashing / fallback mapping.
  uint32_t hash_functions = 2;
  /// Exact-count tracking for the most frequent subjects/objects.
  size_t stats_top_k = 1000;
  /// Build the literal-value side table enabling ordered FILTERs.
  bool build_lex = true;
  /// Table-name prefix inside the embedded database.
  std::string prefix = "";
  /// Entry budget of the plan/translation cache.
  size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
};

class RdfStore final : public SparqlStore {
 public:
  /// The backend-kind tag written into snapshot metadata.
  static constexpr const char* kBackendKind = "db2rdf";

  /// Builds a store from \p graph (consumed: its dictionary moves into the
  /// store).
  static Result<std::unique_ptr<RdfStore>> Load(
      rdf::Graph graph, const RdfStoreOptions& options = {});

  /// Opens a persisted store directory: loads the newest valid snapshot
  /// (falling back to the previous on corruption), replays the committed
  /// WAL suffix — truncating a torn tail — and finishes recovery with a
  /// fresh checkpoint. With persist_opts.verify_on_recovery a verified
  /// probe query gates the result.
  static Result<std::unique_ptr<RdfStore>> Open(
      const std::string& dir, const PersistOptions& persist_opts = {},
      const RdfStoreOptions& options = {});

  /// Recovery entry point shared with the store::OpenStore dispatcher:
  /// rebuilds a store from an already-scanned RecoveryPlan.
  static Result<std::unique_ptr<RdfStore>> OpenFromPlan(
      persist::RecoveryPlan plan, const PersistOptions& persist_opts,
      const RdfStoreOptions& options);

  /// Attaches durability to this (so far in-memory) store: writes the
  /// initial snapshot generation into \p dir and starts logging every
  /// committed mutation to its WAL.
  Status EnablePersistence(const std::string& dir,
                           const PersistOptions& opts = {});

  bool persistent() const { return persist_ != nullptr; }

  // SparqlStore read surface (thread-safe; see file comment). The
  // streaming QueryWith is the primitive; the materializing overload is
  // the base-class convenience over it.
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
  std::string name() const override { return "DB2RDF"; }
  const rdf::Dictionary& dictionary() const override { return dict_; }

  /// Runs an already-parsed (possibly rewritten) query — e.g. after
  /// sparql::ExpandTypeQuery inference expansion. Not plan-cached (there is
  /// no query text to key on).
  Result<ResultSet> QueryParsed(const sparql::Query& query,
                                const QueryOptions& opts = {});

  /// Inserts one triple incrementally. Takes the writer lock; invalidates
  /// the plan cache and materialized closure tables. With persistence
  /// attached, returns only once the mutation is WAL-durable per the
  /// configured sync mode.
  Status Insert(const rdf::Triple& triple);
  /// Deletes one triple (NotFound when absent). Same invalidation and
  /// durability as Insert.
  Status Delete(const rdf::Triple& triple);

  /// Batch mutations: applied under one writer lock acquisition and logged
  /// as a single WAL record. On mid-batch failure the already-applied
  /// prefix stays applied (and is the part that was logged) and the first
  /// error is returned.
  Status InsertBatch(const std::vector<rdf::Triple>& triples);
  Status DeleteBatch(const std::vector<rdf::Triple>& triples);

  // Durability surface (SparqlStore):
  Status Checkpoint() override;
  Status Flush() override;
  Status Close() override;
  persist::PersistStats persist_stats() const override;

  const schema::LoadStats& load_stats() const { return load_stats_; }
  const schema::Db2RdfSchema& schema() const { return *schema_; }
  const opt::Statistics& statistics() const { return stats_; }
  sql::Database& database() { return db_; }
  /// The mappings in force (inspection / benchmarks).
  const schema::PredicateMapping& direct_mapping() const { return *direct_; }
  const schema::PredicateMapping& reverse_mapping() const {
    return *reverse_;
  }

 private:
  RdfStore() = default;

  /// Pure translation: the shared optimizer pipeline plus the DB2RDF SQL
  /// builder; fills \p explain when non-null. Requires every closure
  /// table needed by \p query to already be materialized (see
  /// EnsureClosuresFor); const and safe under a shared lock.
  Result<translate::TranslatedQuery> Translate(
      const sparql::Query& query, const QueryOptions& opts,
      Explanation* explain = nullptr) const RDFREL_REQUIRES_SHARED(mutex_);

  /// Translates \p query into an immutable, shareable plan (consumes it).
  Result<std::shared_ptr<const CachedPlan>> BuildPlan(
      sparql::Query query, const QueryOptions& opts) const
      RDFREL_REQUIRES_SHARED(mutex_);

  /// Explain body shared by the read-only and closure-materializing paths;
  /// the caller holds the lock in the matching mode.
  Result<Explanation> ExplainLocked(const sparql::Query& query,
                                    const QueryOptions& opts)
      RDFREL_REQUIRES_SHARED(mutex_);

  /// Materializes closure tables for every transitive property-path triple
  /// of \p query. Mutates db_/closure_cache_: callers hold the writer lock.
  Status EnsureClosuresFor(const sparql::Query& query)
      RDFREL_REQUIRES(mutex_);

  /// Materializes (and caches) the transitive closure of \p pred as a
  /// binary table (entry, val); kStar additionally contains the reflexive
  /// pairs of every node touching the predicate. Returns the table name.
  Result<std::string> EnsureClosureTable(const rdf::Term& pred,
                                         sparql::PathMod mod)
      RDFREL_REQUIRES(mutex_);

  /// Drops materialized closure tables and empties the plan cache; called
  /// by Insert/Delete under the writer lock.
  Status InvalidateAfterWrite() RDFREL_REQUIRES(mutex_);

  /// Applies one triple to the in-memory state (dictionary, relations,
  /// statistics). Caller holds the writer lock.
  Status ApplyInsert(const rdf::Triple& triple) RDFREL_REQUIRES(mutex_);
  Status ApplyDelete(const rdf::Triple& triple) RDFREL_REQUIRES(mutex_);

  /// Shared body of Insert/Delete/InsertBatch/DeleteBatch: apply under the
  /// writer lock, log exactly the applied prefix, wait for durability
  /// outside the lock.
  Status MutateBatch(persist::WalRecordType type,
                     const std::vector<rdf::Triple>& triples)
      RDFREL_EXCLUDES(mutex_);

  /// Serializes the current state into snapshot sections (caller holds at
  /// least a shared lock). Closure tables are excluded: they are derived
  /// data, rebuilt lazily after recovery.
  Result<persist::SnapshotSections> SnapshotState() const
      RDFREL_REQUIRES_SHARED(mutex_);

  /// Serializes readers (shared) against Insert/Delete and closure
  /// materialization (exclusive). Protects db_, dict_, stats_,
  /// closure_cache_ and the schema spill sets. SQL tables have no lock
  /// of their own, so every scan runs under this lock's shared mode and
  /// every table mutation under its exclusive mode. kStore is the
  /// outermost engine rank: holders go on to take the plan cache and the
  /// WAL (see util/mutex.h's hierarchy).
  mutable util::SharedMutex mutex_{"store", util::lock_rank::kStore};

  // db_, dict_, stats_, schema_ and friends are accessed under mutex_ in
  // the matching mode but stay unannotated: public accessors hand out
  // references for single-threaded tooling (benchmarks, loaders). The
  // annotated fields are the ones only this class touches.
  sql::Database db_;
  std::unique_ptr<schema::Db2RdfSchema> schema_;
  std::unique_ptr<schema::Loader> loader_;
  std::shared_ptr<const schema::PredicateMapping> direct_;
  std::shared_ptr<const schema::PredicateMapping> reverse_;
  rdf::Dictionary dict_;
  opt::Statistics stats_;
  schema::LoadStats load_stats_;
  std::string lex_table_;
  /// (predicate id, mod) -> materialized closure table name.
  std::map<std::pair<uint64_t, int>, std::string> closure_cache_
      RDFREL_GUARDED_BY(mutex_);
  int path_table_counter_ RDFREL_GUARDED_BY(mutex_) = 0;
  /// Memoized (sparql, options) -> translated plan. Internally locked.
  PlanCache plan_cache_;
  /// Snapshot/WAL orchestration; null while the store is memory-only.
  std::unique_ptr<persist::PersistenceManager> persist_;
};

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_RDF_STORE_H_
