#ifndef RDFREL_SCHEMA_LOADER_H_
#define RDFREL_SCHEMA_LOADER_H_

/// \file loader.h
/// Shredding RDF into the DB2RDF layout: bulk load of a Graph and
/// incremental single-triple insertion, maintaining spill rows, multi-value
/// lists, and the bookkeeping sets the translator depends on.

#include <cstdint>
#include <memory>

#include "rdf/graph.h"
#include "schema/db2rdf_schema.h"
#include "schema/predicate_mapping.h"
#include "util/status.h"

namespace rdfrel::schema {

/// Load-time accounting (drives the paper's §2.3 reporting).
struct LoadStats {
  uint64_t triples = 0;
  uint64_t dph_rows = 0;      ///< total DPH tuples (including spill rows)
  uint64_t rph_rows = 0;
  uint64_t dph_spill_rows = 0;  ///< DPH tuples beyond each entity's first
  uint64_t rph_spill_rows = 0;
  uint64_t ds_rows = 0;
  uint64_t rs_rows = 0;

  LoadStats& operator+=(const LoadStats& o) {
    triples += o.triples;
    dph_rows += o.dph_rows;
    rph_rows += o.rph_rows;
    dph_spill_rows += o.dph_spill_rows;
    rph_spill_rows += o.rph_spill_rows;
    ds_rows += o.ds_rows;
    rs_rows += o.rs_rows;
    return *this;
  }
};

/// Loads triples into a Db2RdfSchema. The predicate mappings (direct and
/// reverse) are fixed at construction — the same mapping must be used for
/// every load into a given schema instance.
class Loader {
 public:
  Loader(Db2RdfSchema* schema,
         std::shared_ptr<const PredicateMapping> direct_mapping,
         std::shared_ptr<const PredicateMapping> reverse_mapping);

  /// Shreds the whole graph (grouping by subject for DPH and by object for
  /// RPH). Intended for initially-empty schemas; calling it twice inserts
  /// duplicate entity rows.
  Result<LoadStats> BulkLoad(const rdf::Graph& graph);
  /// The same, over groupings the caller already holds:
  /// graph.GroupBySubject() and graph.GroupByObject().
  Result<LoadStats> BulkLoad(const rdf::Graph& graph,
                             const rdf::TripleGroups& by_subject,
                             const rdf::TripleGroups& by_object);

  /// Inserts one triple incrementally: finds/extends the subject's DPH rows
  /// and the object's RPH rows, converting single values to multi-value
  /// lists and creating spill rows as needed.
  Status InsertTriple(const rdf::Dictionary& dict,
                      const rdf::EncodedTriple& triple);

  /// Deletes one triple from both sides. Multi-value lists shrink (and stay
  /// lists even at one element); cells become NULL when the last value
  /// goes; fully-empty rows are removed. NotFound when absent.
  Status DeleteTriple(const rdf::Dictionary& dict,
                      const rdf::EncodedTriple& triple);

  const LoadStats& stats() const { return stats_; }

 private:
  struct Direction;  // defined in loader.cc

  Db2RdfSchema* schema_;
  std::shared_ptr<const PredicateMapping> direct_;
  std::shared_ptr<const PredicateMapping> reverse_;
  LoadStats stats_;
};

}  // namespace rdfrel::schema

#endif  // RDFREL_SCHEMA_LOADER_H_
