#ifndef RDFREL_TESTS_REFERENCE_REFERENCE_H_
#define RDFREL_TESTS_REFERENCE_REFERENCE_H_

/// \file reference.h
/// A direct SPARQL evaluator over an rdf::Graph's decoded triples, used as
/// the test oracle for every backend. It shares only the SPARQL parser's
/// AST and rdf::Term with the system under test: no SQL engine, translator,
/// optimizer, schema or store code (its CMake target links none of them).
///
/// It evaluates the SPARQL algebra literally: a group folds its elements
/// with Join, OPTIONAL is a LeftJoin whose condition is the optional
/// group's own FILTERs (compatible-mapping semantics), UNION concatenates,
/// and a group's FILTERs apply to the whole group. Graphs are sets
/// (duplicate triples collapse). Semantics of the subset:
///  - FILTER uses three-valued logic; an error (unbound operand, type
///    mismatch) is false at the top. `=`/`!=` compare numeric literals
///    (lexical form parses fully as a double) by value and other terms by
///    identity. Ordered comparisons compare numeric literals by value and
///    two non-numeric literals by lexical form; anything else is an error.
///    REGEX(?x, "p") is a substring test on a literal's lexical form.
///  - ORDER BY sorts unbound < blank nodes < IRIs < literals; numeric
///    literals precede other literals and compare by value; the rest
///    compare by lexical form, language, then datatype. The sort is stable.
///  - Aggregates: COUNT counts bound values (or rows, for `*`);
///    SUM/MIN/MAX/AVG fold the values of bound numeric literals and skip
///    everything else, and are unbound when nothing was folded. COUNT is
///    an xsd:integer, the others xsd:decimal.
/// Anything else (property paths) is kUnsupported; callers skip and count.

#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/graph.h"
#include "sparql/ast.h"
#include "util/status.h"

namespace rdfrel::reference {

/// One solution: values parallel to Answer::vars (nullopt == unbound).
using Row = std::vector<std::optional<rdf::Term>>;

struct Answer {
  std::vector<std::string> vars;
  std::vector<Row> rows;
};

class Evaluator {
 public:
  /// Decodes and indexes every triple of \p graph (which may die after).
  explicit Evaluator(const rdf::Graph& graph);

  /// Evaluates \p query. With \p slice false, LIMIT/OFFSET are ignored
  /// (the unsliced answer a sliced backend result must be drawn from).
  Result<Answer> Evaluate(const sparql::Query& query, bool slice = true) const;

 private:
  friend class QueryEval;

  /// Interned term id, or -1 when the term does not occur in the graph.
  int Find(const rdf::Term& term) const;

  std::vector<rdf::Term> terms_;
  std::unordered_map<std::string, int> ids_;  ///< DictionaryKey -> id
  std::vector<std::array<int, 3>> triples_;   ///< distinct (s, p, o)
  /// Triple indices by subject / predicate / object id.
  std::unordered_map<int, std::vector<int>> by_pos_[3];
};

/// Compares a backend's \p got rows (over \p vars) for \p query with the
/// reference, returning an empty string on agreement or a description of
/// the first difference. \p unsliced is the reference answer evaluated
/// with slice=false. Without ORDER BY the rows compare as multisets; with
/// it, the sequence of ORDER BY keys that the projection carries must
/// match too. With LIMIT/OFFSET, \p got must have the sliced answer's row
/// count and be a sub-multiset of \p unsliced. Aggregate columns compare
/// by numeric value (6 significant digits).
std::string Diff(const sparql::Query& query, const Answer& unsliced,
                 const std::vector<std::string>& vars,
                 const std::vector<Row>& got);

}  // namespace rdfrel::reference

#endif  // RDFREL_TESTS_REFERENCE_REFERENCE_H_
