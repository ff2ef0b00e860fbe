#include "store/open.h"

#include <utility>

#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::store {

Result<std::unique_ptr<SparqlStore>> OpenStore(
    const std::string& dir, const PersistOptions& persist_opts) {
  RDFREL_ASSIGN_OR_RETURN(persist::RecoveryPlan plan,
                          RelationalStore::ScanForRecovery(dir, persist_opts));
  if (plan.backend_kind == RdfStore::kBackendKind) {
    RDFREL_ASSIGN_OR_RETURN(
        auto store, RdfStore::OpenFromPlan(std::move(plan), persist_opts, {}));
    return std::unique_ptr<SparqlStore>(std::move(store));
  }
  if (plan.backend_kind == TripleStoreBackend::kBackendKind) {
    RDFREL_ASSIGN_OR_RETURN(
        auto store,
        TripleStoreBackend::OpenFromPlan(std::move(plan), persist_opts, {}));
    return std::unique_ptr<SparqlStore>(std::move(store));
  }
  if (plan.backend_kind == PredicateStoreBackend::kBackendKind) {
    RDFREL_ASSIGN_OR_RETURN(
        auto store, PredicateStoreBackend::OpenFromPlan(std::move(plan),
                                                        persist_opts, {}));
    return std::unique_ptr<SparqlStore>(std::move(store));
  }
  return Status::DataLoss("unknown backend kind in snapshot: '" +
                          plan.backend_kind + "'");
}

}  // namespace rdfrel::store
