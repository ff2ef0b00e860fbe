#ifndef RDFREL_SQL_BTREE_H_
#define RDFREL_SQL_BTREE_H_

/// \file btree.h
/// An in-memory B+-tree index over Value keys, non-unique: each key maps to
/// the set of RowIds holding it. Supports point lookup, range scans, and
/// ordered iteration. This backs the `entry`-column indexes of the DB2RDF
/// relations (the paper indexes only DPH.entry and RPH.entry).

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sql/row.h"
#include "sql/value.h"
#include "util/status.h"

namespace rdfrel::sql {

/// Non-unique ordered index: Value -> [RowId].
class BPlusTree {
 public:
  /// \p fanout: max children per internal node (>= 4).
  explicit BPlusTree(size_t fanout = 64);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Adds (key, rid). Duplicates of the same (key, rid) pair are kept once.
  void Insert(const Value& key, RowId rid);

  /// Removes one (key, rid) posting; returns false when absent.
  bool Remove(const Value& key, RowId rid);

  /// RowIds for an exact key (empty when absent).
  std::vector<RowId> Lookup(const Value& key) const;

  /// True if the key exists.
  bool Contains(const Value& key) const;

  /// Visits postings with lo <= key <= hi in key order. Null bounds mean
  /// unbounded on that side. Callback returns false to stop early.
  void Range(const std::optional<Value>& lo, const std::optional<Value>& hi,
             const std::function<bool(const Value&, RowId)>& fn) const;

  /// Visits every posting in key order.
  void ScanAll(const std::function<bool(const Value&, RowId)>& fn) const;

  /// Number of (key, rid) postings.
  size_t size() const { return size_; }
  /// Number of distinct keys.
  size_t num_keys() const { return num_keys_; }
  /// Height of the tree (1 = just a leaf).
  size_t height() const;

  /// Internal structural invariants (tests): sorted keys, balanced depth,
  /// node occupancy. Returns Internal status describing the first violation.
  Status CheckInvariants() const;

 private:
  struct Node;
  struct LeafEntry;

  Node* FindLeaf(const Value& key) const;
  void InsertIntoLeaf(Node* leaf, const Value& key, RowId rid);
  void SplitLeaf(Node* leaf);
  void SplitInternal(Node* node);
  void InsertIntoParent(Node* left, Value sep, Node* right);
  void FreeTree(Node* node);

  size_t fanout_;
  Node* root_;
  size_t size_ = 0;
  size_t num_keys_ = 0;
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_BTREE_H_
