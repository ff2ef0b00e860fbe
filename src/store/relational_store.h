#ifndef RDFREL_STORE_RELATIONAL_STORE_H_
#define RDFREL_STORE_RELATIONAL_STORE_H_

/// \file relational_store.h
/// The shell every backend shares: an RDF layout over one embedded
/// relational database. The paper's §2 compares DB2RDF with the triple-store
/// and predicate-oriented layouts over one engine, so the three backends
/// differ only in their tables and their SQL translation; everything else
/// lives here, written once:
///
///  * the state: database, dictionary, statistics, lex table, plan cache,
///    persistence manager, and the store lock that guards them;
///  * the read surface: QueryWith (a cache hit under the reader lock,
///    otherwise parse -> Translate -> cache), TranslateWith (the cached
///    plan's SQL), Explain, and the accessors;
///  * durability: EnablePersistence, Checkpoint, Flush, Close,
///    persist_stats, the dictionary/statistics/catalog snapshot sections,
///    and the shared half of recovery (Recover).
///
/// A backend supplies Load, its Translate hook and its snapshot section.
/// DB2RDF also overrides the property-path and WAL-replay hooks; the
/// defaults reject property paths and a non-empty WAL.
///
/// Concurrency: one util::SharedMutex per store. Readers (queries,
/// TranslateWith, Explain, Flush, persist_stats) hold it shared, including
/// for the whole of a streaming query; writers (mutations, path-table
/// materialization, EnablePersistence, Checkpoint, Close) hold it
/// exclusive. A WAL durability wait runs outside it.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "opt/statistics.h"
#include "persist/coding.h"
#include "persist/manager.h"
#include "sql/database.h"
#include "store/backend_util.h"
#include "store/sparql_store.h"
#include "util/mutex.h"

namespace rdfrel::store {

class RelationalStore : public SparqlStore {
 public:
  /// Scans \p dir for recovery with \p opts.env (the POSIX env when null).
  static Result<persist::RecoveryPlan> ScanForRecovery(
      const std::string& dir, const PersistOptions& opts);

  // Read surface (thread-safe). The streaming QueryWith is the primitive;
  // the materializing overload is SparqlStore's convenience over it.
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
  const rdf::Dictionary& dictionary() const override { return dict_; }
  const opt::Statistics& statistics() const { return stats_; }
  sql::Database& database() { return db_; }

  /// Attaches durability to this (so far in-memory) store: writes the
  /// initial snapshot generation into \p dir. AlreadyExists when attached.
  Status EnablePersistence(const std::string& dir,
                           const PersistOptions& opts = {});
  bool persistent() const;

  // Durability surface (SparqlStore):
  Status Checkpoint() override;
  Status Flush() override;
  Status Close() override;
  persist::PersistStats persist_stats() const override;

 protected:
  /// \p backend_kind is the tag written into snapshot metadata.
  RelationalStore(const char* backend_kind, size_t plan_cache_capacity)
      : plan_cache_(plan_cache_capacity), backend_kind_(backend_kind) {}

  /// Layout hook: the shared optimizer pipeline plus this layout's SQL
  /// builder; fills \p explain when non-null.
  virtual Result<translate::TranslatedQuery> Translate(
      const sparql::Query& query, const QueryOptions& opts,
      Explanation* explain) const RDFREL_REQUIRES_SHARED(mutex_) = 0;

  /// Layout hook: this backend's snapshot section, and its inverse. The
  /// decoder runs after the catalog is restored; the shell checks that it
  /// consumed every byte.
  virtual Status EncodeBackendSection(std::string* out) const
      RDFREL_REQUIRES_SHARED(mutex_) = 0;
  virtual Status DecodeBackendSection(persist::ByteReader* in) = 0;

  /// Property-path hook, run under the writer lock before translating a
  /// query with transitive property-path triples. The default rejects them.
  virtual Status PreparePaths(const sparql::Query& query)
      RDFREL_REQUIRES(mutex_);
  /// True for tables the path hook derived: kept out of snapshots.
  virtual bool IsDerivedTable(const std::string& table) const
      RDFREL_REQUIRES_SHARED(mutex_);
  /// Applies the committed WAL suffix during recovery. The default accepts
  /// only an empty one: a backend without mutations never logs.
  virtual Status ReplayWal(const std::vector<persist::WalRecord>& records)
      RDFREL_REQUIRES(mutex_);

  /// The shared half of Open: checks the backend kind, restores the
  /// dictionary, statistics, catalog and backend sections, replays the WAL,
  /// resumes persistence, and runs the verified probe query when
  /// opts.verify_on_recovery asks.
  Status Recover(persist::RecoveryPlan plan, const PersistOptions& opts)
      RDFREL_EXCLUDES(mutex_);

  /// Takes the store lock for \p query (shared, or exclusive after the path
  /// hook when it has property-path triples), translates it, filling
  /// \p explain when non-null, and passes the translation to \p then under
  /// the same lock, so whatever runs the SQL sees the tables the
  /// translation read.
  Status WithTranslation(
      const sparql::Query& query, const QueryOptions& opts,
      Explanation* explain,
      const std::function<Status(translate::TranslatedQuery)>& then)
      RDFREL_EXCLUDES(mutex_);

  /// Serializes readers (shared) against mutations, path-table
  /// materialization and the persistence lifecycle (exclusive). SQL tables
  /// have no lock of their own, so every scan runs under this lock's shared
  /// mode and every table mutation under its exclusive mode. kStore is the
  /// outermost engine rank: holders go on to take the plan cache and the
  /// WAL (see util/mutex.h's hierarchy).
  mutable util::SharedMutex mutex_{"store", util::lock_rank::kStore};

  // Accessed under mutex_ in the matching mode but unannotated: public
  // accessors hand out references for single-threaded tooling (benchmarks,
  // loaders).
  sql::Database db_;
  rdf::Dictionary dict_;
  opt::Statistics stats_;
  std::string lex_table_;
  /// Memoized (sparql, options) -> translated plan. Internally locked.
  PlanCache plan_cache_;
  /// Snapshot/WAL orchestration; null while the store is memory-only.
  /// Shared so a committer can wait for durability outside the lock while
  /// Close detaches it.
  std::shared_ptr<persist::PersistenceManager> persist_
      RDFREL_GUARDED_BY(mutex_);

 private:
  /// A cache hit under the reader lock, else parse -> translate -> cache;
  /// hands the plan to \p use while the lock is held.
  Status WithPlan(std::string_view sparql, const QueryOptions& opts,
                  const std::function<Status(const CachedPlan&)>& use)
      RDFREL_EXCLUDES(mutex_);

  /// The snapshot sections of the current state.
  Result<persist::SnapshotSections> SnapshotState() const
      RDFREL_REQUIRES_SHARED(mutex_);

  const char* backend_kind_;
};

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_RELATIONAL_STORE_H_
