#ifndef RDFREL_STORE_BACKEND_UTIL_H_
#define RDFREL_STORE_BACKEND_UTIL_H_

/// \file backend_util.h
/// Shared pipeline pieces for every SparqlStore implementation: optimize a
/// query into an execution tree and translate it (one pipeline for
/// queries and Explain alike), execute+decode generated SQL, and memoize
/// translated plans in a sharded LRU cache so repeated queries skip the
/// whole parse/optimize/translate front half.

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "opt/exec_tree.h"
#include "opt/merge.h"
#include "opt/plan_verifier.h"
#include "opt/statistics.h"
#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sql/database.h"
#include "sql/exec_control.h"
#include "store/result_set.h"
#include "store/row_sink.h"
#include "store/sparql_store.h"
#include "translate/sql_base.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace rdfrel::store {

/// A fully translated query, ready to execute. The parsed AST is retained
/// because result decoding needs the projection/aggregate shape and the
/// post-filters point into its FILTER nodes (stable heap storage). Plans
/// are shared immutably via shared_ptr: a reader holding one stays safe
/// even if the cache entry is concurrently evicted or invalidated.
struct CachedPlan {
  sparql::Query query;
  std::string sql;
  std::vector<const sparql::FilterExpr*> post_filters;
  /// Unprojected variables the post-filters read; carried as extra
  /// trailing SQL columns and dropped after filtering (sql_base.h).
  std::vector<std::string> post_filter_vars;
};

/// The cache key: the raw query text plus the QueryOptions knobs (each knob
/// changes the generated SQL).
std::string PlanCacheKey(std::string_view sparql, const QueryOptions& opts);

/// The per-store plan/translation cache. Thread-safe; see util/lru_cache.h.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 256;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : cache_(capacity) {}

  std::shared_ptr<const CachedPlan> Get(const std::string& key) {
    auto hit = cache_.Get(key);
    return hit ? std::move(*hit) : nullptr;
  }
  void Put(const std::string& key, std::shared_ptr<const CachedPlan> plan) {
    cache_.Put(key, std::move(plan));
  }
  /// Writers call this after mutating data: every plan is dropped (a write
  /// can change spill sets and always drops closure tables).
  void Clear() { cache_.Clear(); }

  util::CacheStats stats() const { return cache_.stats(); }

 private:
  util::ShardedLruCache<std::string, std::shared_ptr<const CachedPlan>>
      cache_;
};

/// What the optimizer reads from a backend besides the query and knobs.
struct OptimizerInputs {
  const opt::Statistics* stats = nullptr;
  const rdf::Dictionary* dict = nullptr;
  /// Star merging's spill test (DB2RDF). Empty for the baselines: their
  /// layouts have no wide rows, so they never merge and ignore
  /// QueryOptions::merging.
  opt::SpillCheck spill;
  /// Schema facts for VerifyExecTree; empty for the baselines, where only
  /// the structural checks apply.
  opt::PlanVerifyContext verify;
};

/// The optimizer pipeline, shared by every backend's queries, translation
/// and Explain: data-flow graph, flow tree per opts.flow, exec tree, then
/// star merging when opts.merging and in.spill is set. Each tree is
/// verified when opts.verify_plans or the process-wide gate asks. When
/// \p explain is non-null its parse/flow/exec/plan tree strings are filled.
Result<opt::ExecNodePtr> OptimizeQuery(
    const sparql::Query& query, const OptimizerInputs& in,
    const QueryOptions& opts,
    SparqlStore::Explanation* explain = nullptr);

/// Backend hook: turn an optimized plan into SQL for the backend's layout.
using SqlBuildFn = std::function<Result<translate::TranslatedQuery>(
    const sparql::Query&, const opt::ExecNode&)>;

/// OptimizeQuery followed by \p build: the one path from a parsed query to
/// SQL. When \p explain is non-null it also receives the SQL, so Explain
/// shows exactly what TranslateWith returns.
Result<translate::TranslatedQuery> TranslateQuery(
    const sparql::Query& query, const OptimizerInputs& in,
    const QueryOptions& opts, const SqlBuildFn& build,
    SparqlStore::Explanation* explain = nullptr);

/// Wraps a translation of \p query into a shareable plan (consumes both).
std::shared_ptr<const CachedPlan> MakeCachedPlan(
    sparql::Query query, translate::TranslatedQuery translated);

/// Runs explain->sql once on \p db with profiling on to fill
/// explain->exec_stats: per-operator rows/batches/time.
Status ProfileExplained(sql::Database* db, SparqlStore::Explanation* explain);

/// Builds the executor-side cancellation handle from the execution-only
/// QueryOptions fields (deadline, cancel token).
sql::ExecControl ControlFromOptions(const QueryOptions& opts);

/// Engine ExecOptions for \p opts. Only ExecOptions::control remains, and
/// it is NOT set here — callers own the control's lifetime (build it with
/// ControlFromOptions).
sql::ExecOptions ExecOptionsFromQueryOptions(const QueryOptions& opts);

/// The streaming execution back half shared by every backend: runs \p sql
/// on \p db batch-at-a-time, decodes ids through \p dict, applies
/// \p post_filters per block, and pushes the surviving solutions into
/// \p sink (Begin/OnRows.../End). Deadline and cancel from \p opts are
/// checked at every batch boundary.
Status ExecuteDecodedSqlStreaming(
    sql::Database* db, const std::string& sql, const sparql::Query& query,
    const rdf::Dictionary& dict,
    const std::vector<const sparql::FilterExpr*>& post_filters,
    const std::vector<std::string>& post_filter_vars,
    const QueryOptions& opts, RowSink& sink);

/// Materializing convenience over the streaming back half.
Result<ResultSet> ExecuteDecodedSql(
    sql::Database* db, const std::string& sql, const sparql::Query& query,
    const rdf::Dictionary& dict,
    const std::vector<const sparql::FilterExpr*>& post_filters,
    const std::vector<std::string>& post_filter_vars = {},
    const QueryOptions& opts = {});

/// Executes a translated plan (cache hit or fresh) against \p db.
inline Status ExecutePlanStreaming(sql::Database* db, const CachedPlan& plan,
                                   const rdf::Dictionary& dict,
                                   const QueryOptions& opts, RowSink& sink) {
  return ExecuteDecodedSqlStreaming(db, plan.sql, plan.query, dict,
                                    plan.post_filters, plan.post_filter_vars,
                                    opts, sink);
}

/// Builds the `(id, num)` lex side table named \p table for every numeric
/// literal in \p dict.
Status BuildLexTable(sql::Database* db, const rdf::Dictionary& dict,
                     const std::string& table);

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_BACKEND_UTIL_H_
