#ifndef RDFREL_SQL_ROW_H_
#define RDFREL_SQL_ROW_H_

/// \file row.h
/// The row type every table, index and operator shares.

#include <cstdint>
#include <vector>

#include "sql/value.h"

namespace rdfrel::sql {

using Row = std::vector<Value>;

/// A row's slot number within its table. Stable for the row's lifetime:
/// updates happen in place, and a slot is reused only after its row is
/// deleted.
using RowId = uint32_t;

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_ROW_H_
