#ifndef RDFREL_BENCH_DATASET_BENCH_H_
#define RDFREL_BENCH_DATASET_BENCH_H_

/// \file dataset_bench.h
/// Shared per-dataset benchmark driver: runs a workload's query mix
/// against several stores, printing the paper-style per-query table
/// (Figures 16-18) and the Figure 15 summary counters.

#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "benchdata/workload.h"
#include "store/sparql_store.h"

namespace rdfrel::bench {

struct SystemSummary {
  std::string system;
  int complete = 0;
  int error = 0;
  double total_ms = 0;
  std::vector<QueryTiming> timings;  ///< one per query, in workload order

  double MeanMs() const { return complete > 0 ? total_ms / complete : 0; }
};

/// Runs every query of \p w against every store; prints a per-query table
/// and returns per-system summaries. Stores that cannot evaluate a query
/// (Unsupported / errors) are counted as errors for that query.
inline std::vector<SystemSummary> RunDataset(
    const benchdata::Workload& w,
    const std::vector<std::pair<std::string, store::SparqlStore*>>& stores,
    int rounds = 3) {
  std::vector<SystemSummary> summaries;
  for (const auto& [name, s] : stores) {
    summaries.emplace_back().system = name;
  }

  // Header.
  std::string header = "| query  |";
  for (const auto& [name, s] : stores) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %-18s |", name.c_str());
    header += buf;
  }
  header += " rows   |";
  std::puts(header.c_str());

  for (const auto& q : w.queries) {
    std::string line;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "| %-6s |", q.id.c_str());
    line += buf;
    int64_t rows = -1;
    for (size_t i = 0; i < stores.size(); ++i) {
      QueryTiming t = TimeQuery(stores[i].second, q.id, q.sparql, rounds);
      summaries[i].timings.push_back(t);
      if (t.rows >= 0) {
        summaries[i].complete += 1;
        summaries[i].total_ms += t.mean_ms;
        if (rows < 0) rows = t.rows;
        std::snprintf(buf, sizeof(buf), " %12.2f ms    |", t.mean_ms);
      } else {
        summaries[i].error += 1;
        std::snprintf(buf, sizeof(buf), " %-18s |", "error");
      }
      line += buf;
    }
    std::snprintf(buf, sizeof(buf), " %-6lld |",
                  static_cast<long long>(rows));
    line += buf;
    std::puts(line.c_str());
  }
  return summaries;
}

inline void PrintSummaries(const std::string& dataset, uint64_t triples,
                           size_t num_queries,
                           const std::vector<SystemSummary>& summaries) {
  std::printf("\n== Figure 15 row: %s (%llu triples, %zu queries) ==\n",
              dataset.c_str(), static_cast<unsigned long long>(triples),
              num_queries);
  std::printf("| system             | complete | error | mean (ms) |\n");
  for (const auto& s : summaries) {
    std::printf("| %-18s | %8d | %5d | %9.2f |\n", s.system.c_str(),
                s.complete, s.error, s.MeanMs());
  }
}

}  // namespace rdfrel::bench

#endif  // RDFREL_BENCH_DATASET_BENCH_H_
