#ifndef RDFREL_STORE_PREDICATE_STORE_BACKEND_H_
#define RDFREL_STORE_PREDICATE_STORE_BACKEND_H_

/// \file predicate_store_backend.h
/// Baseline 2 (paper §2): the predicate-oriented (vertical-partitioning /
/// C-store-style [2]) layout — one 2-column relation per predicate — with
/// its own SPARQL-to-SQL translation (Figure 2d).
///
/// The data never changes after Load. Plan caching, locking and
/// persistence come from the RelationalStore shell; recovery is
/// snapshot-only (the WAL stays empty).

#include <memory>
#include <string>
#include <unordered_map>

#include "rdf/graph.h"
#include "store/relational_store.h"

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

class PredicateStoreBackend final : public RelationalStore {
 public:
  static constexpr const char* kBackendKind = "predicate";

  static Result<std::unique_ptr<PredicateStoreBackend>> Load(
      rdf::Graph graph, const PredicateStoreOptions& options = {});

  /// Opens a persisted predicate store (see RelationalStore::Recover).
  static Result<std::unique_ptr<PredicateStoreBackend>> Open(
      const std::string& dir, const PersistOptions& persist_opts = {},
      const PredicateStoreOptions& options = {});
  static Result<std::unique_ptr<PredicateStoreBackend>> OpenFromPlan(
      persist::RecoveryPlan plan, const PersistOptions& persist_opts,
      const PredicateStoreOptions& options);

  std::string name() const override { return "Predicate-oriented"; }
  size_t num_predicate_tables() const { return tables_.size(); }

 private:
  explicit PredicateStoreBackend(const PredicateStoreOptions& options)
      : RelationalStore(kBackendKind, options.plan_cache_capacity),
        options_(options) {}

  Result<translate::TranslatedQuery> Translate(
      const sparql::Query& query, const QueryOptions& opts,
      Explanation* explain) const override RDFREL_REQUIRES_SHARED(mutex_);
  Status EncodeBackendSection(std::string* out) const override
      RDFREL_REQUIRES_SHARED(mutex_);
  Status DecodeBackendSection(persist::ByteReader* in) override;

  std::unordered_map<uint64_t, std::string> tables_;  // pred id -> table
  PredicateStoreOptions options_;
};

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_PREDICATE_STORE_BACKEND_H_
