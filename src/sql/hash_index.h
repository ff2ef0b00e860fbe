#ifndef RDFREL_SQL_HASH_INDEX_H_
#define RDFREL_SQL_HASH_INDEX_H_

/// \file hash_index.h
/// An unordered, non-unique equality index: Value -> [RowId], the structure
/// behind every secondary index. Keys match by Value::operator== and hash by
/// Value::Hash, so an INT key and an integral DOUBLE key find each other.
/// Every access the generated SQL makes through an index is an equality
/// probe, so there is no range or ordered scan.

#include <unordered_map>
#include <vector>

#include "sql/row.h"
#include "sql/value.h"

namespace rdfrel::sql {

class HashIndex {
 public:
  HashIndex() = default;

  /// Adds (key, rid); a repeated (key, rid) pair is kept once.
  void Insert(const Value& key, RowId rid);
  /// Removes one posting; returns false when absent.
  bool Remove(const Value& key, RowId rid);
  /// RowIds for an exact key in insertion order; empty when absent. The
  /// reference is valid until the next Insert or Remove.
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
