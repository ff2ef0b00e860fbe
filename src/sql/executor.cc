#include "sql/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "sql/operator_verifier.h"
#include "util/verify.h"

namespace rdfrel::sql {

namespace {

Scope TableScope(const Table* table, const std::string& alias) {
  Scope s;
  for (const auto& col : table->schema().columns()) {
    s.Add(alias, col.name);
  }
  return s;
}

/// Fetches the row at \p rid into \p out, reusing \p out's storage (no
/// intermediate Row like Table::Get). Tables within the decoded-page budget
/// are served from the page cache — index probes tend to revisit pages, so
/// the one-time decode amortizes; larger tables read the heap cell directly
/// to avoid re-decoding whole pages per probe.
Status FetchRowInto(const Table& table, RowId rid, Row* out) {
  const HeapFile& heap = table.storage().heap();
  if (rid.page >= heap.num_pages()) {
    return Status::Internal("rid page out of range");
  }
  if (table.row_count() <= Table::kDecodedRowBudget) {
    RDFREL_ASSIGN_OR_RETURN(std::shared_ptr<const DecodedPage> dp,
                            table.DecodePage(rid.page));
    if (rid.slot >= dp->slot_index.size() ||
        dp->slot_index[rid.slot] == DecodedPage::kDeadSlot) {
      return Status::Internal("rid slot not live");
    }
    *out = dp->rows[dp->slot_index[rid.slot]];
    return Status::OK();
  }
  RDFREL_ASSIGN_OR_RETURN(std::string_view bytes,
                          heap.page(rid.page).Get(rid.slot));
  return DeserializeRowInto(table.schema(), bytes, out);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// --------------------------------------------------------------- Operator

Result<bool> Operator::NextBatch(RowBatch* out) {
  if (control_ != nullptr) {
    RDFREL_RETURN_NOT_OK(control_->Check());
  }
  out->Reset();
  bool has = false;
  if (!timing_) {
    RDFREL_ASSIGN_OR_RETURN(has, NextBatchImpl(out));
  } else {
    uint64_t start = NowNs();
    Result<bool> r = NextBatchImpl(out);
    stats_.ns += NowNs() - start;
    if (!r.ok()) return r;
    has = *r;
  }
  if (has) {
    stats_.rows += out->ActiveSize();
    ++stats_.batches;
    if (util::VerifyPlansEnabled()) {
      Status st = VerifyRowBatch(*out);
      if (!st.ok()) {
        return Status::InternalPlanError(name() + ": " + st.message());
      }
    }
  }
  return has;
}

void Operator::EnableTiming(bool on) {
  timing_ = on;
  for (Operator* c : children()) c->EnableTiming(on);
}

void Operator::SetControl(const ExecControl* control) {
  // A trivial control can never fire; detach instead of paying the
  // per-batch check.
  control_ = (control != nullptr && control->Trivial()) ? nullptr : control;
  for (Operator* c : children()) c->SetControl(control_);
}

Status Operator::ForEachChildRow(
    Operator* child, const std::function<Status(const Row&)>& fn) {
  RowBatch batch;
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, child->NextBatch(&batch));
    if (!has) return Status::OK();
    for (size_t i = 0; i < batch.ActiveSize(); ++i) {
      RDFREL_RETURN_NOT_OK(fn(batch.Active(i)));
    }
  }
}

namespace {
void FormatStatsRec(Operator& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op.name());
  const OperatorStats& s = op.stats();
  out->append(": rows=");
  out->append(std::to_string(s.rows));
  out->append(" batches=");
  out->append(std::to_string(s.batches));
  if (s.ns > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " ms=%.3f",
                  static_cast<double>(s.ns) / 1e6);
    out->append(buf);
  }
  out->push_back('\n');
  for (Operator* c : op.children()) FormatStatsRec(*c, depth + 1, out);
}
}  // namespace

std::string FormatOperatorStats(Operator& root) {
  std::string out;
  FormatStatsRec(root, 0, &out);
  return out;
}

// ------------------------------------------------------------- SeqScanOp

SeqScanOp::SeqScanOp(const Table* table, const std::string& alias)
    : table_(table) {
  scope_ = TableScope(table, alias);
}

Status SeqScanOp::Open() {
  page_ = 0;
  cur_page_.reset();
  return Status::OK();
}

Result<bool> SeqScanOp::NextBatchImpl(RowBatch* out) {
  const size_t end_page = table_->storage().heap().num_pages();
  while (page_ < end_page) {
    RDFREL_ASSIGN_OR_RETURN(cur_page_,
                            table_->DecodePage(static_cast<uint32_t>(page_)));
    ++page_;
    if (cur_page_->rows.empty()) continue;
    // One whole page per call, zero copy: the batch points straight into
    // the decoded page, which cur_page_ keeps alive past this call.
    out->Borrow(cur_page_->rows.data(), cur_page_->rows.size());
    return true;
  }
  return false;
}

// ------------------------------------------------------------ IndexScanOp

IndexScanOp::IndexScanOp(const Table* table, const std::string& alias,
                         const IndexInfo* index, Value key)
    : table_(table), index_(index), key_(std::move(key)) {
  scope_ = TableScope(table, alias);
}

Status IndexScanOp::Open() {
  rids_ = index_->Lookup(key_);
  pos_ = 0;
  return Status::OK();
}

Result<bool> IndexScanOp::NextBatchImpl(RowBatch* out) {
  if (pos_ >= rids_.size()) return false;
  while (pos_ < rids_.size() && !out->Full()) {
    RDFREL_RETURN_NOT_OK(FetchRowInto(*table_, rids_[pos_++], out->AddRow()));
  }
  return true;
}

// ----------------------------------------------------- MaterializedScanOp

MaterializedScanOp::MaterializedScanOp(
    std::shared_ptr<const Materialized> mat, const std::string& alias)
    : mat_(std::move(mat)) {
  for (size_t i = 0; i < mat_->scope.size(); ++i) {
    scope_.Add(alias, mat_->scope.column(i).second);
  }
}

Status MaterializedScanOp::Open() {
  pos_ = 0;
  return Status::OK();
}

Result<bool> MaterializedScanOp::NextBatchImpl(RowBatch* out) {
  const size_t end_row = mat_->rows.size();
  if (pos_ >= end_row) return false;
  size_t n = std::min(out->capacity(), end_row - pos_);
  out->Borrow(mat_->rows.data() + pos_, n);
  pos_ += n;
  return true;
}

// --------------------------------------------------------------- FilterOp

FilterOp::FilterOp(OperatorPtr child, BoundExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  scope_ = child_->scope();
}

Status FilterOp::Open() { return child_->Open(); }

Result<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  // The child fills the caller's batch; survivors are marked by a selection
  // vector, never moved.
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    if (!has) return false;
    RDFREL_RETURN_NOT_OK(EvalPredicateBatch(*predicate_, *out, &sel_));
    if (sel_.empty()) continue;
    if (sel_.size() != out->ActiveSize()) out->SetSelection(sel_);
    return true;
  }
}

// -------------------------------------------------------------- ProjectOp

ProjectOp::ProjectOp(OperatorPtr child, std::vector<BoundExprPtr> exprs,
                     Scope out)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  scope_ = std::move(out);
  slots_.reserve(exprs_.size());
  for (const auto& e : exprs_) slots_.push_back(e->AsSlot());
}

Status ProjectOp::Open() { return child_->Open(); }

Result<bool> ProjectOp::NextBatchImpl(RowBatch* out) {
  RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_batch_));
  if (!has) return false;
  // Bare slot references copy straight from the input rows during
  // assembly; only computed expressions materialize a column first.
  cols_.resize(exprs_.size());
  for (size_t e = 0; e < exprs_.size(); ++e) {
    if (slots_[e] < 0) {
      RDFREL_RETURN_NOT_OK(exprs_[e]->EvaluateBatch(in_batch_, &cols_[e]));
    }
  }
  size_t n = in_batch_.ActiveSize();
  for (size_t i = 0; i < n; ++i) {
    const Row& in = in_batch_.Active(i);
    Row* slot = out->AddRow();
    slot->resize(exprs_.size());
    for (size_t e = 0; e < exprs_.size(); ++e) {
      if (slots_[e] >= 0) {
        if (static_cast<size_t>(slots_[e]) >= in.size()) {
          return Status::Internal("slot out of range");
        }
        (*slot)[e] = in[static_cast<size_t>(slots_[e])];
      } else {
        (*slot)[e] = std::move(cols_[e][i]);
      }
    }
  }
  return true;
}

// -------------------------------------------------------------- HashJoinOp

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<BoundExprPtr> left_keys,
                       std::vector<BoundExprPtr> right_keys, bool left_outer,
                       BoundExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      residual_(std::move(residual)) {
  scope_ = left_->scope();
  scope_.Append(right_->scope());
  right_width_ = right_->scope().size();
}

Status HashJoinOp::Open() {
  RDFREL_RETURN_NOT_OK(left_->Open());
  RDFREL_RETURN_NOT_OK(right_->Open());
  build_.clear();
  RDFREL_RETURN_NOT_OK(ForEachChildRow(right_.get(), [&](const Row& row) {
    std::vector<Value> key;
    key.reserve(right_keys_.size());
    for (const auto& k : right_keys_) {
      RDFREL_ASSIGN_OR_RETURN(Value v, k->Evaluate(row));
      if (v.is_null()) return Status::OK();  // NULL keys never join
      key.push_back(std::move(v));
    }
    build_[std::move(key)].push_back(row);
    return Status::OK();
  }));
  probe_.Reset();
  probe_pos_ = 0;
  return Status::OK();
}

const std::vector<Row>* HashJoinOp::LookupBuild(
    const std::vector<Value>& key) const {
  auto it = build_.find(key);
  return it == build_.end() ? nullptr : &it->second;
}

Result<bool> HashJoinOp::NextBatchImpl(RowBatch* out) {
  // Pauses between probe rows once `out` reaches capacity; probe_pos_
  // remembers where to resume, so output batches stay near the target size
  // (one probe row's duplicate matches may still overshoot slightly)
  // instead of holding every match of the probe batch.
  std::vector<Value> key;
  key.reserve(left_keys_.size());
  while (!out->Full()) {
    if (probe_pos_ >= probe_.ActiveSize()) {
      RDFREL_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&probe_));
      if (!has) return out->size() > 0;
      probe_pos_ = 0;
      key_cols_.resize(left_keys_.size());
      for (size_t k = 0; k < left_keys_.size(); ++k) {
        RDFREL_RETURN_NOT_OK(
            left_keys_[k]->EvaluateBatch(probe_, &key_cols_[k]));
      }
    }
    for (; probe_pos_ < probe_.ActiveSize() && !out->Full(); ++probe_pos_) {
      const size_t i = probe_pos_;
      const Row& lrow = probe_.Active(i);
      key.clear();
      bool null_key = false;
      for (size_t k = 0; k < left_keys_.size(); ++k) {
        const Value& v = key_cols_[k][i];
        if (v.is_null()) {
          null_key = true;
          break;
        }
        key.push_back(v);
      }
      const std::vector<Row>* matches = null_key ? nullptr : LookupBuild(key);
      bool emitted = false;
      if (matches != nullptr) {
        for (const Row& rrow : *matches) {
          Row* slot = out->AddRow();
          *slot = lrow;
          slot->insert(slot->end(), rrow.begin(), rrow.end());
          if (residual_) {
            RDFREL_ASSIGN_OR_RETURN(bool pass,
                                    EvalPredicate(*residual_, *slot));
            if (!pass) {
              out->PopRow();
              continue;
            }
          }
          emitted = true;
        }
      }
      if (left_outer_ && !emitted) {
        Row* slot = out->AddRow();
        *slot = lrow;
        slot->insert(slot->end(), right_width_, Value::Null());
      }
    }
  }
  return out->size() > 0;
}

// ---------------------------------------------------------- IndexNLJoinOp

IndexNLJoinOp::IndexNLJoinOp(OperatorPtr outer, const Table* inner,
                             const std::string& inner_alias,
                             const IndexInfo* index, BoundExprPtr outer_key,
                             bool left_outer, BoundExprPtr residual)
    : outer_(std::move(outer)),
      inner_(inner),
      index_(index),
      outer_key_(std::move(outer_key)),
      left_outer_(left_outer),
      residual_(std::move(residual)) {
  scope_ = outer_->scope();
  scope_.Append(TableScope(inner, inner_alias));
}

Status IndexNLJoinOp::Open() {
  RDFREL_RETURN_NOT_OK(outer_->Open());
  outer_batch_.Reset();
  outer_pos_ = 0;
  return Status::OK();
}

Status IndexNLJoinOp::ProbeInto(const Row& outer_row, const Value& key,
                                RowBatch* out) {
  bool emitted = false;
  if (!key.is_null()) {
    for (RowId rid : index_->Lookup(key)) {
      RDFREL_RETURN_NOT_OK(FetchRowInto(*inner_, rid, &inner_row_));
      Row* slot = out->AddRow();
      *slot = outer_row;
      slot->insert(slot->end(), inner_row_.begin(), inner_row_.end());
      if (residual_) {
        RDFREL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *slot));
        if (!pass) {
          out->PopRow();
          continue;
        }
      }
      emitted = true;
    }
  }
  if (left_outer_ && !emitted) {
    Row* slot = out->AddRow();
    *slot = outer_row;
    slot->insert(slot->end(), inner_->schema().num_columns(), Value::Null());
  }
  return Status::OK();
}

Result<bool> IndexNLJoinOp::NextBatchImpl(RowBatch* out) {
  // Bounded like HashJoin: the outer_pos_ cursor pauses the probe loop
  // between outer rows when `out` fills, so a chain of joins hands
  // capacity-sized batches downstream instead of one batch holding the
  // whole multiplied-out result.
  while (!out->Full()) {
    if (outer_pos_ >= outer_batch_.ActiveSize()) {
      RDFREL_ASSIGN_OR_RETURN(bool has, outer_->NextBatch(&outer_batch_));
      if (!has) return out->size() > 0;
      outer_pos_ = 0;
      RDFREL_RETURN_NOT_OK(outer_key_->EvaluateBatch(outer_batch_, &key_col_));
    }
    for (; outer_pos_ < outer_batch_.ActiveSize() && !out->Full();
         ++outer_pos_) {
      RDFREL_RETURN_NOT_OK(ProbeInto(outer_batch_.Active(outer_pos_),
                                     key_col_[outer_pos_], out));
    }
  }
  return out->size() > 0;
}

// -------------------------------------------------------- NestedLoopJoinOp

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   bool left_outer, BoundExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_outer_(left_outer),
      residual_(std::move(residual)) {
  scope_ = left_->scope();
  scope_.Append(right_->scope());
  right_width_ = right_->scope().size();
}

Status NestedLoopJoinOp::Open() {
  RDFREL_RETURN_NOT_OK(left_->Open());
  RDFREL_RETURN_NOT_OK(right_->Open());
  right_rows_.clear();
  RDFREL_RETURN_NOT_OK(ForEachChildRow(right_.get(), [&](const Row& row) {
    right_rows_.push_back(row);
    return Status::OK();
  }));
  left_batch_.Reset();
  left_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::NextBatchImpl(RowBatch* out) {
  while (!out->Full()) {
    if (left_pos_ >= left_batch_.ActiveSize()) {
      RDFREL_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&left_batch_));
      if (!has) return out->size() > 0;
      left_pos_ = 0;
    }
    for (; left_pos_ < left_batch_.ActiveSize() && !out->Full(); ++left_pos_) {
      const Row& lrow = left_batch_.Active(left_pos_);
      bool emitted = false;
      for (const Row& rrow : right_rows_) {
        Row* slot = out->AddRow();
        *slot = lrow;
        slot->insert(slot->end(), rrow.begin(), rrow.end());
        if (residual_) {
          RDFREL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *slot));
          if (!pass) {
            out->PopRow();
            continue;
          }
        }
        emitted = true;
      }
      if (left_outer_ && !emitted) {
        Row* slot = out->AddRow();
        *slot = lrow;
        slot->insert(slot->end(), right_width_, Value::Null());
      }
    }
  }
  return out->size() > 0;
}

// ---------------------------------------------------------------- UnnestOp

UnnestOp::UnnestOp(OperatorPtr child, std::vector<BoundExprPtr> args,
                   const std::string& alias, const std::string& column)
    : child_(std::move(child)), args_(std::move(args)) {
  scope_ = child_->scope();
  scope_.Add(alias, column);
}

Status UnnestOp::Open() {
  in_batch_.Reset();
  in_pos_ = 0;
  return child_->Open();
}

Result<bool> UnnestOp::NextBatchImpl(RowBatch* out) {
  while (!out->Full()) {
    if (in_pos_ >= in_batch_.ActiveSize()) {
      RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_batch_));
      if (!has) return out->size() > 0;
      in_pos_ = 0;
      arg_cols_.resize(args_.size());
      for (size_t a = 0; a < args_.size(); ++a) {
        RDFREL_RETURN_NOT_OK(args_[a]->EvaluateBatch(in_batch_, &arg_cols_[a]));
      }
    }
    for (; in_pos_ < in_batch_.ActiveSize() && !out->Full(); ++in_pos_) {
      const Row& in = in_batch_.Active(in_pos_);
      for (size_t a = 0; a < args_.size(); ++a) {
        Row* slot = out->AddRow();
        *slot = in;
        slot->push_back(std::move(arg_cols_[a][in_pos_]));
      }
    }
  }
  return out->size() > 0;
}

// -------------------------------------------------------------- UnionAllOp

UnionAllOp::UnionAllOp(std::vector<OperatorPtr> children)
    : children_(std::move(children)) {
  scope_ = children_.front()->scope();
}

Status UnionAllOp::Open() {
  for (auto& c : children_) RDFREL_RETURN_NOT_OK(c->Open());
  current_ = 0;
  return Status::OK();
}

std::vector<Operator*> UnionAllOp::children() {
  std::vector<Operator*> out;
  out.reserve(children_.size());
  for (auto& c : children_) out.push_back(c.get());
  return out;
}

Result<bool> UnionAllOp::NextBatchImpl(RowBatch* out) {
  while (current_ < children_.size()) {
    RDFREL_ASSIGN_OR_RETURN(bool has, children_[current_]->NextBatch(out));
    if (has) return true;
    ++current_;
  }
  return false;
}

// -------------------------------------------------------------- DistinctOp

DistinctOp::DistinctOp(OperatorPtr child) : child_(std::move(child)) {
  scope_ = child_->scope();
}

Status DistinctOp::Open() {
  seen_.clear();
  return child_->Open();
}

Result<bool> DistinctOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    if (!has) return false;
    sel_.clear();
    for (size_t i = 0; i < out->ActiveSize(); ++i) {
      if (seen_.insert(out->Active(i)).second) {
        sel_.push_back(out->ActiveIndex(i));
      }
    }
    if (sel_.empty()) continue;
    if (sel_.size() != out->ActiveSize()) out->SetSelection(sel_);
    return true;
  }
}

// ------------------------------------------------------------------ SortOp

SortOp::SortOp(OperatorPtr child, std::vector<BoundExprPtr> keys,
               std::vector<bool> descending)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      descending_(std::move(descending)) {
  scope_ = child_->scope();
}

Status SortOp::Open() {
  RDFREL_RETURN_NOT_OK(child_->Open());
  rows_.clear();
  pos_ = 0;
  RDFREL_RETURN_NOT_OK(ForEachChildRow(child_.get(), [&](const Row& row) {
    rows_.push_back(row);
    return Status::OK();
  }));
  // Precompute sort keys per row to keep the comparator exception-free.
  std::vector<std::vector<Value>> sort_keys(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    sort_keys[i].reserve(keys_.size());
    for (const auto& k : keys_) {
      auto v = k->Evaluate(rows_[i]);
      if (!v.ok()) return v.status();
      sort_keys[i].push_back(std::move(*v));
    }
  }
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      int c = sort_keys[a][k].Compare(sort_keys[b][k]);
      if (c != 0) return descending_[k] ? c > 0 : c < 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortOp::NextBatchImpl(RowBatch* out) {
  if (pos_ >= rows_.size()) return false;
  size_t n = std::min(out->capacity(), rows_.size() - pos_);
  out->Borrow(rows_.data() + pos_, n);
  pos_ += n;
  return true;
}

// ------------------------------------------------------------- AggregateOp

AggregateOp::AggregateOp(OperatorPtr child, std::vector<BoundExprPtr> keys,
                         std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      aggs_(std::move(aggs)) {
  for (size_t i = 0; i < keys_.size(); ++i) {
    scope_.Add("agg", std::string("k").append(std::to_string(i)));
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    scope_.Add("agg", std::string("a").append(std::to_string(i)));
  }
}

Status AggregateOp::Update(const AggSpec& spec, AggState* st,
                           const Value& v) {
  if (spec.distinct && spec.input != nullptr) {
    if (!st->seen.insert(v).second) return Status::OK();
  }
  st->count += 1;
  switch (spec.func) {
    case ast::AggFunc::kCount:
      break;
    case ast::AggFunc::kSum:
    case ast::AggFunc::kAvg:
      if (v.is_string()) {
        return Status::ExecutionError("SUM/AVG over string values");
      }
      if (v.is_int() && st->int_only) {
        st->isum += v.AsInt();
      } else {
        if (st->int_only) {
          st->dsum = static_cast<double>(st->isum);
          st->int_only = false;
        }
        st->dsum += v.NumericValue();
      }
      break;
    case ast::AggFunc::kMin:
    case ast::AggFunc::kMax:
      if (!st->has_value) {
        st->min_value = v;
        st->max_value = v;
      } else {
        if (v.Compare(st->min_value) < 0) st->min_value = v;
        if (v.Compare(st->max_value) > 0) st->max_value = v;
      }
      break;
    case ast::AggFunc::kNone:
      return Status::Internal("kNone aggregate in AggregateOp");
  }
  st->has_value = true;
  return Status::OK();
}

Value AggregateOp::Finalize(const AggSpec& spec, const AggState& st) const {
  switch (spec.func) {
    case ast::AggFunc::kCount:
      return Value::Int(st.count);
    case ast::AggFunc::kSum:
      if (!st.has_value) return Value::Null();
      return st.int_only ? Value::Int(st.isum) : Value::Real(st.dsum);
    case ast::AggFunc::kAvg: {
      if (!st.has_value) return Value::Null();
      double total = st.int_only ? static_cast<double>(st.isum) : st.dsum;
      return Value::Real(total / static_cast<double>(st.count));
    }
    case ast::AggFunc::kMin:
      return st.has_value ? st.min_value : Value::Null();
    case ast::AggFunc::kMax:
      return st.has_value ? st.max_value : Value::Null();
    case ast::AggFunc::kNone:
      break;
  }
  return Value::Null();
}

Status AggregateOp::Open() {
  RDFREL_RETURN_NOT_OK(child_->Open());
  results_.clear();
  pos_ = 0;
  std::unordered_map<std::vector<Value>, std::vector<AggState>,
                     ValueVectorHasher>
      groups;
  std::vector<std::vector<Value>> group_order;
  // Group keys and aggregate inputs evaluate column-at-a-time; the key
  // buffer is reused so only new groups copy it.
  RowBatch batch;
  std::vector<std::vector<Value>> key_cols(keys_.size());
  std::vector<std::vector<Value>> agg_cols(aggs_.size());
  std::vector<Value> key;
  key.reserve(keys_.size());
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch));
    if (!has) break;
    for (size_t k = 0; k < keys_.size(); ++k) {
      RDFREL_RETURN_NOT_OK(keys_[k]->EvaluateBatch(batch, &key_cols[k]));
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].input != nullptr) {
        RDFREL_RETURN_NOT_OK(
            aggs_[a].input->EvaluateBatch(batch, &agg_cols[a]));
      }
    }
    const size_t n = batch.ActiveSize();
    for (size_t r = 0; r < n; ++r) {
      key.clear();
      for (size_t k = 0; k < keys_.size(); ++k) {
        key.push_back(key_cols[k][r]);
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups.emplace(key, std::vector<AggState>(aggs_.size())).first;
        group_order.push_back(key);
      }
      std::vector<AggState>& states = it->second;
      for (size_t a = 0; a < aggs_.size(); ++a) {
        const AggSpec& spec = aggs_[a];
        if (spec.input != nullptr) {
          const Value& v = agg_cols[a][r];
          if (v.is_null()) continue;  // aggregates skip NULL inputs
          RDFREL_RETURN_NOT_OK(Update(spec, &states[a], v));
        } else {
          RDFREL_RETURN_NOT_OK(Update(spec, &states[a], Value::Int(1)));
        }
      }
    }
  }
  // SQL global aggregates produce one row over empty input.
  if (keys_.empty() && groups.empty()) {
    groups.try_emplace(std::vector<Value>{},
                       std::vector<AggState>(aggs_.size()));
    group_order.push_back({});
  }
  for (const auto& group : group_order) {
    const auto& states = groups.at(group);
    Row row = group;
    for (size_t i = 0; i < aggs_.size(); ++i) {
      row.push_back(Finalize(aggs_[i], states[i]));
    }
    results_.push_back(std::move(row));
  }
  return Status::OK();
}

Result<bool> AggregateOp::NextBatchImpl(RowBatch* out) {
  if (pos_ >= results_.size()) return false;
  size_t n = std::min(out->capacity(), results_.size() - pos_);
  out->Borrow(results_.data() + pos_, n);
  pos_ += n;
  return true;
}

// ----------------------------------------------------------------- LimitOp

LimitOp::LimitOp(OperatorPtr child, std::optional<int64_t> limit,
                 std::optional<int64_t> offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {
  scope_ = child_->scope();
}

Status LimitOp::Open() {
  skipped_ = 0;
  emitted_ = 0;
  return child_->Open();
}

Result<bool> LimitOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    if (limit_.has_value() && emitted_ >= *limit_) return false;
    RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    if (!has) return false;
    size_t n = out->ActiveSize();
    size_t begin = 0;
    if (offset_.has_value() && skipped_ < *offset_) {
      size_t to_skip =
          std::min(n, static_cast<size_t>(*offset_ - skipped_));
      skipped_ += static_cast<int64_t>(to_skip);
      begin = to_skip;
    }
    size_t take = n - begin;
    if (limit_.has_value()) {
      take = std::min(take, static_cast<size_t>(*limit_ - emitted_));
    }
    if (take == 0) continue;  // whole batch consumed by OFFSET
    emitted_ += static_cast<int64_t>(take);
    if (begin == 0 && take == n) return true;
    sel_.clear();
    sel_.reserve(take);
    for (size_t i = begin; i < begin + take; ++i) {
      sel_.push_back(out->ActiveIndex(i));
    }
    out->SetSelection(sel_);
    return true;
  }
}

// ---------------------------------------------------------------- VerifySelf
// Per-operator invariants for VerifyOperatorTree (DESIGN.md §8). Each
// returns a bare message; the tree walker prefixes the dotted path.

Status SeqScanOp::VerifySelf() const {
  if (scope_.size() != table_->schema().num_columns()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != table column count " +
        std::to_string(table_->schema().num_columns()));
  }
  return Status::OK();
}

Status IndexScanOp::VerifySelf() const {
  if (scope_.size() != table_->schema().num_columns()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != table column count " +
        std::to_string(table_->schema().num_columns()));
  }
  if (index_ == nullptr) {
    return Status::InternalPlanError("index scan without an index");
  }
  return Status::OK();
}

Status MaterializedScanOp::VerifySelf() const {
  if (scope_.size() != mat_->scope.size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != materialized arity " + std::to_string(mat_->scope.size()));
  }
  return Status::OK();
}

Status FilterOp::VerifySelf() const {
  if (predicate_ == nullptr) {
    return Status::InternalPlanError("filter without a predicate");
  }
  if (scope_.size() != child_->scope().size()) {
    return Status::InternalPlanError("filter changes scope arity");
  }
  return CheckExprSlots(*predicate_, child_->scope().size(), "predicate");
}

Status ProjectOp::VerifySelf() const {
  if (exprs_.size() != scope_.size()) {
    return Status::InternalPlanError(
        std::to_string(exprs_.size()) + " expressions for scope arity " +
        std::to_string(scope_.size()));
  }
  for (size_t i = 0; i < exprs_.size(); ++i) {
    std::string what = "projection " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*exprs_[i], child_->scope().size(), what.c_str()));
  }
  return Status::OK();
}

Status HashJoinOp::VerifySelf() const {
  if (left_keys_.empty() || left_keys_.size() != right_keys_.size()) {
    return Status::InternalPlanError(
        "join key arity mismatch: " + std::to_string(left_keys_.size()) +
        " left vs " + std::to_string(right_keys_.size()) + " right");
  }
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    std::string what = "left key " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(CheckExprSlots(*left_keys_[i],
                                        left_->scope().size(), what.c_str()));
    what = "right key " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(CheckExprSlots(
        *right_keys_[i], right_->scope().size(), what.c_str()));
  }
  if (scope_.size() != left_->scope().size() + right_->scope().size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != left + right arities");
  }
  if (residual_ != nullptr) {
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*residual_, scope_.size(), "residual"));
  }
  return Status::OK();
}

Status IndexNLJoinOp::VerifySelf() const {
  if (outer_key_ == nullptr) {
    return Status::InternalPlanError("index join without an outer key");
  }
  if (index_ == nullptr) {
    return Status::InternalPlanError("index join without an index");
  }
  RDFREL_RETURN_NOT_OK(
      CheckExprSlots(*outer_key_, outer_->scope().size(), "outer key"));
  if (scope_.size() !=
      outer_->scope().size() + inner_->schema().num_columns()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != outer + inner arities");
  }
  if (residual_ != nullptr) {
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*residual_, scope_.size(), "residual"));
  }
  return Status::OK();
}

Status NestedLoopJoinOp::VerifySelf() const {
  if (scope_.size() != left_->scope().size() + right_->scope().size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != left + right arities");
  }
  if (residual_ != nullptr) {
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*residual_, scope_.size(), "residual"));
  }
  return Status::OK();
}

Status UnnestOp::VerifySelf() const {
  if (args_.empty()) {
    return Status::InternalPlanError("unnest with no arguments");
  }
  for (size_t i = 0; i < args_.size(); ++i) {
    std::string what = "argument " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*args_[i], child_->scope().size(), what.c_str()));
  }
  if (scope_.size() != child_->scope().size() + 1) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != child arity + 1");
  }
  return Status::OK();
}

Status UnionAllOp::VerifySelf() const {
  if (children_.empty()) {
    return Status::InternalPlanError("union with no branches");
  }
  for (const auto& c : children_) {
    if (c->scope().size() != scope_.size()) {
      return Status::InternalPlanError(
          "branch arity " + std::to_string(c->scope().size()) +
          " != union arity " + std::to_string(scope_.size()));
    }
  }
  return Status::OK();
}

Status DistinctOp::VerifySelf() const {
  if (scope_.size() != child_->scope().size()) {
    return Status::InternalPlanError("distinct changes scope arity");
  }
  return Status::OK();
}

Status SortOp::VerifySelf() const {
  if (keys_.size() != descending_.size()) {
    return Status::InternalPlanError(
        std::to_string(keys_.size()) + " keys vs " +
        std::to_string(descending_.size()) + " direction flags");
  }
  for (size_t i = 0; i < keys_.size(); ++i) {
    std::string what = "sort key " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*keys_[i], child_->scope().size(), what.c_str()));
  }
  if (scope_.size() != child_->scope().size()) {
    return Status::InternalPlanError("sort changes scope arity");
  }
  return Status::OK();
}

Status AggregateOp::VerifySelf() const {
  if (scope_.size() != keys_.size() + aggs_.size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != keys + aggregates");
  }
  for (size_t i = 0; i < keys_.size(); ++i) {
    std::string what = "group key " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*keys_[i], child_->scope().size(), what.c_str()));
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (aggs_[i].input == nullptr) continue;  // COUNT(*)
    std::string what = "aggregate input " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(CheckExprSlots(
        *aggs_[i].input, child_->scope().size(), what.c_str()));
  }
  return Status::OK();
}

Status LimitOp::VerifySelf() const {
  if (limit_.has_value() && *limit_ < 0) {
    return Status::InternalPlanError("negative LIMIT");
  }
  if (offset_.has_value() && *offset_ < 0) {
    return Status::InternalPlanError("negative OFFSET");
  }
  if (scope_.size() != child_->scope().size()) {
    return Status::InternalPlanError("limit changes scope arity");
  }
  return Status::OK();
}

// --------------------------------------------------------------- CollectRows

Result<std::vector<Row>> CollectRows(Operator* op,
                                     const ExecControl* control) {
  if (control != nullptr) op->SetControl(control);
  RDFREL_RETURN_NOT_OK(op->Open());
  std::vector<Row> rows;
  RowBatch batch;
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, op->NextBatch(&batch));
    if (!has) return rows;
    batch.FlushTo(&rows);
  }
}

}  // namespace rdfrel::sql
