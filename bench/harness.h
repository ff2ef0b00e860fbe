#ifndef RDFREL_BENCH_HARNESS_H_
#define RDFREL_BENCH_HARNESS_H_

/// \file harness.h
/// Shared benchmark plumbing. Timing follows the paper's methodology (§4):
/// queries are run in several consecutive rounds against a warm store, the
/// first round is discarded, and the remaining rounds are averaged.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "store/sparql_store.h"
#include "util/status.h"

namespace rdfrel::bench {

/// Scale factor from the environment (RDFREL_BENCH_SCALE, default 1.0).
/// Benches multiply their dataset sizes by it, so `RDFREL_BENCH_SCALE=10`
/// approximates paper-sized runs.
inline double ScaleFactor() {
  const char* env = std::getenv("RDFREL_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

struct QueryTiming {
  std::string id;
  double mean_ms = 0;
  int64_t rows = -1;       ///< -1 == error
  std::string error;
};

/// Runs one query for `1 + rounds` rounds (first discarded) and reports the
/// mean of the rest.
inline QueryTiming TimeQuery(store::SparqlStore* store,
                             const std::string& id, const std::string& query,
                             int rounds = 3) {
  QueryTiming t;
  t.id = id;
  // Warm-up round (also captures result count / errors).
  auto first = store->Query(query);
  if (!first.ok()) {
    t.error = first.status().ToString();
    return t;
  }
  t.rows = static_cast<int64_t>(first->size());
  double total = 0;
  for (int r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    auto result = store->Query(query);
    auto end = std::chrono::steady_clock::now();
    if (!result.ok()) {
      t.error = result.status().ToString();
      t.rows = -1;
      return t;
    }
    total += std::chrono::duration<double, std::milli>(end - start).count();
  }
  t.mean_ms = total / rounds;
  return t;
}

/// One multi-threaded run: \p total_queries are split evenly across
/// \p threads, each thread looping over \p queries round-robin against the
/// shared store. Used by bench_concurrent to measure read-path scaling.
struct ConcurrentRun {
  int threads = 1;
  double wall_ms = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  double aggregate_qps() const {
    return wall_ms > 0 ? static_cast<double>(ok) / (wall_ms / 1000.0) : 0;
  }
  double per_thread_qps() const {
    return threads > 0 ? aggregate_qps() / threads : 0;
  }
};

inline ConcurrentRun RunConcurrent(store::SparqlStore* store,
                                   const std::vector<std::string>& queries,
                                   int threads, uint64_t total_queries) {
  ConcurrentRun run;
  run.threads = threads;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> errors{0};
  const uint64_t per_thread =
      total_queries / static_cast<uint64_t>(threads);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (uint64_t i = 0; i < per_thread; ++i) {
        const std::string& q =
            queries[(static_cast<uint64_t>(t) + i) % queries.size()];
        if (store->Query(q).ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  auto end = std::chrono::steady_clock::now();
  run.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  run.ok = ok.load();
  run.errors = errors.load();
  return run;
}

/// Times an arbitrary thunk once, in milliseconds.
inline double TimeOnceMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// One SQL-engine measurement. `items` is the number of rows the query
/// scans, the denominator for throughput.
struct SqlBenchEntry {
  std::string id;
  int64_t rows = 0;   ///< result rows
  int64_t items = 0;  ///< input rows scanned per execution
  double ms = 0;      ///< best ms/query

  double RowsPerSec() const {
    return ms > 0 ? static_cast<double>(items) / (ms / 1000.0) : 0;
  }
};

/// Writes the SQL-engine timings as machine-readable JSON (result and
/// input rows, ns/query and input rows/s per entry).
inline bool WriteSqlBenchJson(const std::string& path,
                              const std::vector<SqlBenchEntry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"sql_vectorized\",\n");
  std::fprintf(f, "  \"scale\": %.2f,\n  \"entries\": [\n", ScaleFactor());
  for (size_t i = 0; i < entries.size(); ++i) {
    const SqlBenchEntry& e = entries[i];
    std::fprintf(f,
                 "    {\"query\": \"%s\", \"result_rows\": %lld, "
                 "\"input_rows\": %lld, \"ns_per_query\": %.0f, "
                 "\"rows_per_sec\": %.0f}%s\n",
                 e.id.c_str(), static_cast<long long>(e.rows),
                 static_cast<long long>(e.items), e.ms * 1e6, e.RowsPerSec(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// Prints a markdown-ish table row.
inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<int>& widths) {
  std::string line = "|";
  for (size_t i = 0; i < cells.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), " %-*s |", widths[i], cells[i].c_str());
    line += buf;
  }
  std::puts(line.c_str());
}

inline std::string Ms(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace rdfrel::bench

#endif  // RDFREL_BENCH_HARNESS_H_
