#ifndef RDFREL_SQL_HASH_INDEX_H_
#define RDFREL_SQL_HASH_INDEX_H_

/// \file hash_index.h
/// An unordered equality index: Value -> [RowId]. Cheaper than the B+-tree
/// for pure point lookups; no range support.

#include <unordered_map>
#include <vector>

#include "sql/row.h"
#include "sql/value.h"

namespace rdfrel::sql {

class HashIndex {
 public:
  HashIndex() = default;

  void Insert(const Value& key, RowId rid);
  /// Removes one posting; returns false when absent.
  bool Remove(const Value& key, RowId rid);
  /// RowIds for an exact key; empty when absent.
  const std::vector<RowId>& Lookup(const Value& key) const;
  bool Contains(const Value& key) const;

  size_t size() const { return size_; }
  size_t num_keys() const { return map_.size(); }

 private:
  std::unordered_map<Value, std::vector<RowId>, ValueHasher> map_;
  size_t size_ = 0;
  static const std::vector<RowId> kEmpty;
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_HASH_INDEX_H_
