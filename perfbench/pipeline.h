#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

/// \file pipeline.h
/// The traced copy of the DB2RDF query pipeline. It calls each layer's
/// public function in the order `RdfStore` does, with a span around each
/// call, so every request's time splits across layers. The copy is checked
/// against the store itself: its SQL must equal `TranslateToSql` byte for
/// byte and its rows must equal `QueryWith`'s.

#include <string>
#include <string_view>

#include "answers.h"
#include "store/rdf_store.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

/// One traced request: per-layer times (ms) and work counts.
struct LayerSample {
  double parse_ms = 0;
  double dfg_ms = 0;
  double flow_ms = 0;
  double exec_tree_ms = 0;
  double merge_ms = 0;
  double sql_gen_ms = 0;
  double sql_parse_ms = 0;
  double plan_cte_ms = 0;  ///< PlanSelect, which materializes the CTEs
  double exec_ms = 0;      ///< draining the root operator's NextBatch
  /// ExecuteDecodedSqlStreaming on the same SQL: the store's back half.
  double execute_decoded_ms = 0;
  double serialize_ms = 0;

  uint64_t dfg_edges = 0;
  uint64_t sql_bytes = 0;
  uint64_t cte_rows = 0;
  uint64_t operator_rows = 0;
  uint64_t result_rows = 0;

  std::string sql;
  Answer answer;

  /// Decode and post-filter time: the back half minus the bare SQL run.
  double decode_ms() const;
  /// The spans on the path a plan-cache miss takes inside the store.
  double front_half_ms() const;
};

/// Runs \p sparql through the traced pipeline on \p store, recording spans
/// under request id \p request. The store must not be written concurrently.
rdfrel::Result<LayerSample> TraceQuery(rdfrel::store::RdfStore& store,
                                       std::string_view sparql,
                                       Tracer& tracer, uint64_t request);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
