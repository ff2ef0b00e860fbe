#ifndef RDFREL_STORE_SPARQL_STORE_H_
#define RDFREL_STORE_SPARQL_STORE_H_

/// \file sparql_store.h
/// The abstract store interface shared by the DB2RDF store and the baseline
/// backends (triple-store, predicate-oriented), so benchmarks, examples and
/// the concurrent driver exercise all of them uniformly.
///
/// The full query surface lives here. The primitive every backend
/// implements is the *streaming* `QueryWith(sparql, opts, RowSink&)`:
/// decoded solutions are pushed into the sink block-at-a-time as the
/// vectorized executor produces RowBatches, so a network endpoint can put
/// the first rows on the wire before the scan finishes, and a deadline or
/// sink error stops execution at the next batch boundary. The materializing
/// `QueryWith(sparql, opts) -> ResultSet` is a non-virtual convenience
/// implemented here on top of the streaming surface (via CollectingSink),
/// so the two can never diverge. `TranslateWith` exposes the generated SQL,
/// `Explain` every optimizer stage, and the knob-free `Query`/
/// `TranslateToSql` call the above with default options. Backends without a
/// given optimization simply ignore the corresponding knob (e.g. star
/// merging outside DB2RDF).
///
/// Thread-safety contract: the whole read surface — both `QueryWith`
/// overloads, `TranslateWith`, `Explain` and the thin conveniences — may be
/// called from any number of threads concurrently. Mutating operations (a
/// backend's Insert/Delete, where offered) take the store's writer lock
/// internally and may run concurrently with readers on the caller's side.
/// A *streaming* query holds the store's shared (read) lock for the entire
/// stream, including every RowSink callback: a slow sink therefore delays
/// writers (not other readers), and a sink must never call a mutating
/// operation on the same store from inside a callback (self-deadlock).
/// Translated plans are memoized in a sharded LRU plan cache keyed by
/// (query text, plan-affecting QueryOptions); the execution-only fields
/// (deadline, cancel) are deliberately *not* part of plan identity, so a
/// cached plan is shared across requests with different deadlines.
/// `plan_cache_stats` reports the cache's effectiveness.

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>

#include "persist/persist_stats.h"
#include "persist/wal.h"
#include "rdf/dictionary.h"
#include "store/result_set.h"
#include "store/row_sink.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace rdfrel::store {

/// Durability knobs shared by every backend's EnablePersistence/Open.
struct PersistOptions {
  persist::WalOptions wal;
  /// After recovery, run a verified probe query (plan/operator verifiers
  /// on) against the rebuilt store before declaring the Open successful.
  bool verify_on_recovery = true;
  /// File-system boundary; nullptr = the process-wide POSIX env. Tests
  /// inject MemEnv or FaultInjectionEnv here.
  persist::Env* env = nullptr;
};

/// Flow-tree construction strategy (paper §3.1.1; non-greedy modes are
/// ablations).
enum class FlowMode {
  kGreedy,      ///< Figure 9's cheapest-edge heuristic (default)
  kExhaustive,  ///< exact search, small queries only
  kParseOrder,  ///< bottom-up baseline (the Figure 14 "sub-optimal flow")
};

/// Per-query knobs. The first group changes the *plan* (ablations; defaults
/// reproduce the paper's system) and participates in plan-cache identity.
/// The second group only controls *execution* of one request — it is
/// excluded from the cache key and from operator==, so requests with
/// different deadlines share one cached plan.
struct QueryOptions {
  FlowMode flow = FlowMode::kGreedy;
  bool late_fusing = true;
  bool merging = true;
  /// Runs the plan/IR invariant verifiers (DESIGN.md §8) on every
  /// intermediate representation of this query. ORed with the process-wide
  /// gate (Debug builds, RDFREL_VERIFY_PLANS=1, util::SetVerifyPlans).
  bool verify_plans = false;

  // --- Execution-only controls (not part of plan identity) ---

  /// Absolute deadline. Checked at every executor batch boundary; an
  /// expired deadline surfaces as StatusCode::kDeadlineExceeded (partial
  /// results may already have reached a streaming sink).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// External cancel token (borrowed; must outlive the call). Checked at
  /// the same boundaries; surfaces as StatusCode::kCancelled, which wins
  /// over an expired deadline.
  const std::atomic<bool>* cancel = nullptr;

  /// Convenience: deadline = now + \p budget.
  QueryOptions& WithTimeout(std::chrono::nanoseconds budget) {
    deadline = std::chrono::steady_clock::now() + budget;
    return *this;
  }

  /// Plan identity only — execution-only fields intentionally ignored.
  friend bool operator==(const QueryOptions& a, const QueryOptions& b) {
    return a.flow == b.flow && a.late_fusing == b.late_fusing &&
           a.merging == b.merging && a.verify_plans == b.verify_plans;
  }
};

class SparqlStore {
 public:
  virtual ~SparqlStore() = default;

  /// Every stage of the optimizer pipeline for a query, for debugging and
  /// plan inspection (the paper's Figures 8, 10, 11 and 13 for any query).
  struct Explanation {
    std::string parse_tree;   ///< pattern tree (Figure 7)
    std::string flow_tree;    ///< optimal flow (Figure 8, chosen nodes)
    std::string exec_tree;    ///< execution tree (Figure 10)
    std::string plan_tree;    ///< after star merging (Figure 11)
    std::string sql;          ///< generated SQL (Figure 13)
    std::string exec_stats;   ///< per-operator execution profile
                              ///< (rows/batches/time per physical operator)
  };

  /// The streaming primitive: parses, optimizes, translates and executes a
  /// SPARQL query, pushing decoded solutions into \p sink block-at-a-time
  /// as the executor produces batches (see row_sink.h for the callback
  /// contract). Honors options.deadline / options.cancel at every batch
  /// boundary. Thread-safe; holds the store's read lock across the stream.
  virtual Status QueryWith(std::string_view sparql,
                           const QueryOptions& options, RowSink& sink) = 0;

  /// Materializing convenience: the same pipeline collected into a
  /// ResultSet. Non-virtual by design — implemented on the streaming
  /// surface so the two paths cannot diverge.
  Result<ResultSet> QueryWith(std::string_view sparql,
                              const QueryOptions& options) {
    CollectingSink sink;
    RDFREL_RETURN_NOT_OK(QueryWith(sparql, options, sink));
    return sink.TakeResult();
  }

  /// The SQL the store would execute for \p sparql under \p options.
  virtual Result<std::string> TranslateWith(std::string_view sparql,
                                            const QueryOptions& options) = 0;

  /// The pipeline stages for \p sparql under \p options.
  virtual Result<Explanation> Explain(std::string_view sparql,
                                      const QueryOptions& options = {}) = 0;

  /// Default-knob conveniences (thin overloads, intentionally non-virtual).
  Result<ResultSet> Query(std::string_view sparql) {
    return QueryWith(sparql, QueryOptions{});
  }
  Status Query(std::string_view sparql, RowSink& sink) {
    return QueryWith(sparql, QueryOptions{}, sink);
  }
  Result<std::string> TranslateToSql(std::string_view sparql) {
    return TranslateWith(sparql, QueryOptions{});
  }

  /// Cumulative hit/miss/eviction counters of the plan cache.
  virtual util::CacheStats plan_cache_stats() const = 0;

  /// Inert: always zeros. The engine keeps no page cache; this remains
  /// only because the benchmark harness (`perfbench/`) still calls it.
  util::CacheStats page_cache_stats() const { return {}; }

  // --- Durability surface (see src/persist/, DESIGN.md §9). Backends
  // without persistence attached keep the defaults. ---

  /// Writes a new snapshot generation and truncates the WAL behind it.
  virtual Status Checkpoint() {
    return Status::Unsupported("no persistence attached to this store");
  }

  /// Forces every acknowledged mutation durable (WAL fsync).
  virtual Status Flush() { return Status::OK(); }

  /// Flushes and detaches persistence. Idempotent; the store stays
  /// queryable in memory afterwards.
  virtual Status Close() { return Status::OK(); }

  /// WAL/snapshot counters; zeros when no persistence is attached.
  virtual persist::PersistStats persist_stats() const { return {}; }

  /// Store display name for benchmark tables.
  virtual std::string name() const = 0;

  virtual const rdf::Dictionary& dictionary() const = 0;
};

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_SPARQL_STORE_H_
