#ifndef RDFREL_SQL_ROW_BATCH_H_
#define RDFREL_SQL_ROW_BATCH_H_

/// \file row_batch.h
/// The unit of vectorized execution: a batch of ~1024 rows handed between
/// operators by a single virtual call instead of one call per tuple.
///
/// A batch is in one of two storage modes:
///  - *owned*: rows live in the batch and are reused across Reset() calls,
///    so a scan that refills the same batch never reallocates Row vectors
///    after warm-up;
///  - *borrowed*: the batch points into somebody else's contiguous rows
///    (a table's slots, a Materialized CTE) — zero copies,
///    valid while the producing operator is alive.
///
/// Filters do not compact either kind; they attach a *selection vector* of
/// surviving physical indices. Consumers iterate `ActiveSize()` /
/// `Active(i)`, which sees through both the selection and the storage mode.

#include <cstdint>
#include <vector>

#include "sql/row.h"

namespace rdfrel::sql {

class RowBatch {
 public:
  /// Target rows per batch; producers may exceed it (e.g. a join emits
  /// every match of a probe batch).
  static constexpr size_t kDefaultCapacity = 1024;

  explicit RowBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }
  bool Full() const { return size() >= capacity_; }

  /// Empties the batch, keeping owned Row storage for reuse and dropping
  /// any borrow and selection.
  void Reset() {
    count_ = 0;
    borrowed_ = nullptr;
    borrowed_count_ = 0;
    has_selection_ = false;
    selection_.clear();
  }

  // ------------------------------------------------------------ producers

  /// Appends an owned row slot and returns it. The slot may hold stale
  /// values from a previous batch; the caller must overwrite it fully.
  Row* AddRow() {
    if (count_ == rows_.size()) rows_.emplace_back();
    return &rows_[count_++];
  }

  /// Undoes the most recent AddRow (e.g. a residual predicate rejected the
  /// row after it was assembled in place).
  void PopRow() { --count_; }

  /// Points the batch at \p n contiguous external rows (no copy). The
  /// source must outlive every read of this batch; Reset() detaches.
  void Borrow(const Row* rows, size_t n) {
    count_ = 0;
    borrowed_ = rows;
    borrowed_count_ = n;
  }

  /// Restricts the batch to \p physical_indices (ascending physical row
  /// indices). A second filter over an already-selected batch passes the
  /// surviving subset again — indices stay physical throughout.
  void SetSelection(const std::vector<uint32_t>& physical_indices) {
    selection_ = physical_indices;
    has_selection_ = true;
  }

  // ------------------------------------------------------------ consumers

  /// Physical rows in the batch (ignores the selection).
  size_t size() const { return borrowed_ ? borrowed_count_ : count_; }

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }

  /// Rows visible through the selection.
  size_t ActiveSize() const {
    return has_selection_ ? selection_.size() : size();
  }
  /// Physical index of the i-th active row.
  uint32_t ActiveIndex(size_t i) const {
    return has_selection_ ? selection_[i] : static_cast<uint32_t>(i);
  }
  const Row& Active(size_t i) const { return RowAt(ActiveIndex(i)); }
  /// Row by physical index (selection-blind; expression evaluation uses
  /// active indices resolved by the caller).
  const Row& RowAt(size_t idx) const {
    return borrowed_ ? borrowed_[idx] : rows_[idx];
  }

  /// Appends every active row to \p out. Dense owned rows are moved out
  /// (each final result row materializes exactly once); borrowed or
  /// selected rows are copied.
  void FlushTo(std::vector<Row>* out) {
    if (!borrowed_ && !has_selection_) {
      for (size_t i = 0; i < count_; ++i) out->push_back(std::move(rows_[i]));
      return;
    }
    for (size_t i = 0; i < ActiveSize(); ++i) out->push_back(Active(i));
  }

 private:
  size_t capacity_;
  std::vector<Row> rows_;  ///< owned storage; first count_ are live
  size_t count_ = 0;
  const Row* borrowed_ = nullptr;
  size_t borrowed_count_ = 0;
  std::vector<uint32_t> selection_;
  bool has_selection_ = false;
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_ROW_BATCH_H_
