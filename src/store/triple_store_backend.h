#ifndef RDFREL_STORE_TRIPLE_STORE_BACKEND_H_
#define RDFREL_STORE_TRIPLE_STORE_BACKEND_H_

/// \file triple_store_backend.h
/// Baseline 1 (paper §2): the skinny triple-store — one 3-column relation
/// `triples(subj, pred, obj)` — with its own SPARQL-to-SQL translation
/// (self-joins per triple pattern, as in Figure 2c).
///
/// The data never changes after Load. Plan caching, locking and
/// persistence come from the RelationalStore shell; recovery is
/// snapshot-only (the WAL stays empty).

#include <memory>
#include <string>

#include "rdf/graph.h"
#include "store/relational_store.h"

namespace rdfrel::store {

struct TripleStoreOptions {
  bool index_subject = true;
  bool index_object = true;
  bool index_predicate = false;  ///< the paper indexes only entry columns
  bool build_lex = true;
  size_t stats_top_k = 1000;
};

class TripleStoreBackend final : public RelationalStore {
 public:
  static constexpr const char* kBackendKind = "triple";

  static Result<std::unique_ptr<TripleStoreBackend>> Load(
      rdf::Graph graph, const TripleStoreOptions& options = {});

  /// Opens a persisted triple store (see RelationalStore::Recover).
  static Result<std::unique_ptr<TripleStoreBackend>> Open(
      const std::string& dir, const PersistOptions& persist_opts = {});
  static Result<std::unique_ptr<TripleStoreBackend>> OpenFromPlan(
      persist::RecoveryPlan plan, const PersistOptions& persist_opts);

  std::string name() const override { return "Triple-store"; }

 private:
  TripleStoreBackend() : RelationalStore(kBackendKind) {}

  Result<translate::TranslatedQuery> Translate(
      const sparql::Query& query, const QueryOptions& opts,
      Explanation* explain) const override RDFREL_REQUIRES_SHARED(mutex_);
  Status EncodeBackendSection(std::string* out) const override
      RDFREL_REQUIRES_SHARED(mutex_);
  Status DecodeBackendSection(persist::ByteReader* in) override;
};

}  // namespace rdfrel::store

#endif  // RDFREL_STORE_TRIPLE_STORE_BACKEND_H_
