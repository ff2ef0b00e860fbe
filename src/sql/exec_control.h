#ifndef RDFREL_SQL_EXEC_CONTROL_H_
#define RDFREL_SQL_EXEC_CONTROL_H_

/// \file exec_control.h
/// Cooperative cancellation for query execution. An ExecControl carries an
/// optional deadline and an optional external cancel flag; the executor
/// checks it at every batch boundary, so a long scan stops within one batch
/// of the deadline instead of running to completion. The two conditions
/// surface as distinct status codes: kCancelled (somebody asked us to stop)
/// vs kDeadlineExceeded (we ran out of time) — callers route them
/// differently (a shed HTTP request vs a 504).

#include <atomic>
#include <chrono>

#include "util/status.h"

namespace rdfrel::sql {

struct ExecControl {
  /// Absolute deadline; ignored unless has_deadline.
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  /// External cancel flag (e.g. a disconnected client, server shutdown).
  /// Not owned; must outlive the execution. nullptr = never cancelled.
  const std::atomic<bool>* cancel = nullptr;

  /// OK while the query may keep running. Cancel wins over the deadline so
  /// a shutdown reads as kCancelled even when the deadline also lapsed.
  Status Check() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  /// True when neither condition can ever fire (skip per-batch checks).
  bool Trivial() const { return !has_deadline && cancel == nullptr; }
};

/// Per-execution settings that never affect plan *shape* (and therefore
/// must never enter plan-cache identity — see store::PlanCacheKey). Today
/// it carries only the control.
struct ExecOptions {
  /// Borrowed; must outlive the execution. nullptr = uncontrolled.
  const ExecControl* control = nullptr;
};

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_EXEC_CONTROL_H_
