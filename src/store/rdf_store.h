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

#include "rdf/graph.h"
#include "schema/coloring_mapping.h"
#include "schema/loader.h"
#include "store/relational_store.h"
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
};

class RdfStore final : public RelationalStore {
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
  /// probe query gates the result. The layout comes from the snapshot.
  static Result<std::unique_ptr<RdfStore>> Open(
      const std::string& dir, const PersistOptions& persist_opts = {});

  /// Recovery entry point shared with the store::OpenStore dispatcher:
  /// rebuilds a store from an already-scanned RecoveryPlan.
  static Result<std::unique_ptr<RdfStore>> OpenFromPlan(
      persist::RecoveryPlan plan, const PersistOptions& persist_opts);

  std::string name() const override { return "DB2RDF"; }

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

  const schema::LoadStats& load_stats() const { return load_stats_; }
  const schema::Db2RdfSchema& schema() const { return *schema_; }
  /// The mappings in force (inspection / benchmarks).
  const schema::PredicateMapping& direct_mapping() const { return *direct_; }
  const schema::PredicateMapping& reverse_mapping() const {
    return *reverse_;
  }

 private:
  RdfStore() : RelationalStore(kBackendKind) {}

  /// The shared optimizer pipeline plus the DB2RDF SQL builder. Requires
  /// every closure table needed by \p query to already be materialized
  /// (see PreparePaths).
  Result<translate::TranslatedQuery> Translate(
      const sparql::Query& query, const QueryOptions& opts,
      Explanation* explain) const override RDFREL_REQUIRES_SHARED(mutex_);
  Status EncodeBackendSection(std::string* out) const override
      RDFREL_REQUIRES_SHARED(mutex_);
  Status DecodeBackendSection(persist::ByteReader* in) override;

  /// Materializes closure tables for every transitive property-path triple
  /// of \p query; they stay out of snapshots (IsDerivedTable).
  Status PreparePaths(const sparql::Query& query) override
      RDFREL_REQUIRES(mutex_);
  bool IsDerivedTable(const std::string& table) const override
      RDFREL_REQUIRES_SHARED(mutex_);
  /// Replays committed WAL batches through the normal mutation path.
  Status ReplayWal(const std::vector<persist::WalRecord>& records) override
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

  // Layout state, under mutex_ like the shell's (see RelationalStore).
  std::unique_ptr<schema::Db2RdfSchema> schema_;
  std::unique_ptr<schema::Loader> loader_;
  std::shared_ptr<const schema::PredicateMapping> direct_;
  std::shared_ptr<const schema::PredicateMapping> reverse_;
  schema::LoadStats load_stats_;
  /// (predicate id, mod) -> materialized closure table name.
  std::map<std::pair<uint64_t, int>, std::string> closure_cache_
      RDFREL_GUARDED_BY(mutex_);
  int path_table_counter_ RDFREL_GUARDED_BY(mutex_) = 0;
};

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_RDF_STORE_H_
