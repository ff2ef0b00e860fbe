/// \file bench_engine.cc
/// google-benchmark microbenchmarks for the embedded relational engine's
/// primitives: row serde, B+-tree, hash index, dictionary encoding, and
/// end-to-end SQL evaluation paths (index scan, hash join, star lookup).
///
/// `bench_engine --threads N` instead runs the intra-query parallelism
/// sweep: LUBM star/chain/scan query classes at 1..N worker pipelines,
/// writing BENCH_engine.json (with the host's core count — interpret
/// speedups accordingly; a 1-core container cannot show wall-clock gains).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "benchdata/lubm.h"
#include "rdf/dictionary.h"
#include "sql/btree.h"
#include "sql/database.h"
#include "sql/hash_index.h"
#include "sql/row.h"
#include "store/rdf_store.h"

namespace rdfrel {
namespace {

void BM_RowSerde(benchmark::State& state) {
  sql::Schema schema({{"a", sql::ValueType::kInt64},
                      {"b", sql::ValueType::kString},
                      {"c", sql::ValueType::kDouble},
                      {"d", sql::ValueType::kInt64}});
  sql::Row row = {sql::Value::Int(42), sql::Value::Str("hello world"),
                  sql::Value::Real(3.25), sql::Value::Null()};
  for (auto _ : state) {
    std::string bytes;
    if (!SerializeRow(schema, row, &bytes).ok()) std::abort();
    auto back = DeserializeRow(schema, bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_RowSerde);

void BM_BTreeInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    sql::BPlusTree tree;
    for (int64_t i = 0; i < n; ++i) {
      tree.Insert(sql::Value::Int(i * 2654435761 % n),
                  sql::RowId{0, static_cast<uint32_t>(i)});
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(100000);

void BM_BTreeLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  sql::BPlusTree tree;
  for (int64_t i = 0; i < n; ++i) {
    tree.Insert(sql::Value::Int(i), sql::RowId{0, static_cast<uint32_t>(i)});
  }
  int64_t k = 0;
  for (auto _ : state) {
    auto rids = tree.Lookup(sql::Value::Int(k++ % n));
    benchmark::DoNotOptimize(rids);
  }
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(100000);

void BM_HashIndexLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  sql::HashIndex idx;
  for (int64_t i = 0; i < n; ++i) {
    idx.Insert(sql::Value::Int(i), sql::RowId{0, static_cast<uint32_t>(i)});
  }
  int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Lookup(sql::Value::Int(k++ % n)));
  }
}
BENCHMARK(BM_HashIndexLookup)->Arg(100000);

void BM_DictionaryEncode(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rdf::Dictionary dict;
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      dict.Encode(rdf::Term::Iri("http://example.org/entity/" +
                                 std::to_string(i)));
    }
    benchmark::DoNotOptimize(dict.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DictionaryEncode);

/// A database with `rows` two-column rows and indexes, shared per run.
sql::Database* SetupJoinDb(int64_t rows) {
  auto* db = new sql::Database();
  auto check = [](auto&& r) {
    if (!r.ok()) std::abort();
  };
  check(db->Execute("CREATE TABLE l (a BIGINT, b BIGINT)"));
  check(db->Execute("CREATE TABLE r (a BIGINT, c BIGINT)"));
  check(db->Execute("CREATE INDEX idx_r_a ON r (a)"));
  auto ltab = db->catalog().GetTable("l").value();
  auto rtab = db->catalog().GetTable("r").value();
  for (int64_t i = 0; i < rows; ++i) {
    check(ltab->Insert({sql::Value::Int(i), sql::Value::Int(i % 9973)}));
    check(rtab->Insert({sql::Value::Int(i), sql::Value::Int(i % 9973)}));
  }
  return db;
}

void BM_SqlIndexNLJoin(benchmark::State& state) {
  static sql::Database* db = SetupJoinDb(50000);
  for (auto _ : state) {
    // Selective left side drives an index probe into r.
    auto res = db->Query(
        "SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND l.b = 13");
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res->rows.size());
  }
}
BENCHMARK(BM_SqlIndexNLJoin);

void BM_SqlHashJoin(benchmark::State& state) {
  static sql::Database* db = SetupJoinDb(50000);
  for (auto _ : state) {
    auto res = db->Query("SELECT l.a FROM l, r WHERE l.b = r.c");
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res->rows.size());
  }
}
BENCHMARK(BM_SqlHashJoin);

void BM_SqlPointLookup(benchmark::State& state) {
  static sql::Database* db = SetupJoinDb(50000);
  int64_t k = 0;
  for (auto _ : state) {
    auto res = db->Query("SELECT r.c FROM r WHERE r.a = " +
                         std::to_string(k++ % 50000));
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res->rows.size());
  }
}
BENCHMARK(BM_SqlPointLookup);

/// Runs \p sql with the engine pinned to \p mode (row fallback vs
/// vectorized batches); the row/batch benchmark pairs below share one
/// static database, so deltas isolate the drive mode.
void RunModeBench(benchmark::State& state, sql::ExecMode mode,
                  const std::string& sql) {
  static sql::Database* db = SetupJoinDb(50000);
  db->set_exec_mode(mode);
  for (auto _ : state) {
    auto res = db->Query(sql);
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res->rows.size());
  }
  db->set_exec_mode(sql::ExecMode::kBatch);
  state.SetItemsProcessed(state.iterations() * 50000);
}

void BM_SqlScanFilterRow(benchmark::State& state) {
  RunModeBench(state, sql::ExecMode::kRow,
               "SELECT l.a FROM l WHERE l.b > 4986");
}
BENCHMARK(BM_SqlScanFilterRow);

void BM_SqlScanFilterBatch(benchmark::State& state) {
  RunModeBench(state, sql::ExecMode::kBatch,
               "SELECT l.a FROM l WHERE l.b > 4986");
}
BENCHMARK(BM_SqlScanFilterBatch);

void BM_SqlHashJoinRow(benchmark::State& state) {
  RunModeBench(state, sql::ExecMode::kRow,
               "SELECT l.a FROM l, r WHERE l.b = r.c AND l.a < 5000");
}
BENCHMARK(BM_SqlHashJoinRow);

void BM_SqlHashJoinBatch(benchmark::State& state) {
  RunModeBench(state, sql::ExecMode::kBatch,
               "SELECT l.a FROM l, r WHERE l.b = r.c AND l.a < 5000");
}
BENCHMARK(BM_SqlHashJoinBatch);

void BM_SqlIndexNLJoinRow(benchmark::State& state) {
  RunModeBench(state, sql::ExecMode::kRow,
               "SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND l.b = 13");
}
BENCHMARK(BM_SqlIndexNLJoinRow);

void BM_SqlIndexNLJoinBatch(benchmark::State& state) {
  RunModeBench(state, sql::ExecMode::kBatch,
               "SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND l.b = 13");
}
BENCHMARK(BM_SqlIndexNLJoinBatch);

// ------------------------------------------------- --threads sweep

/// Mean ms/query over `rounds` timed rounds after one warm-up, with the
/// given parallelism degree.
double TimeQueryThreads(store::SparqlStore* store, const std::string& sparql,
                        unsigned threads, int64_t* rows_out, int rounds = 3) {
  store::QueryOptions opts;
  opts.max_threads = threads;
  auto first = store->QueryWith(sparql, opts);
  if (!first.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 first.status().ToString().c_str());
    std::exit(1);
  }
  *rows_out = static_cast<int64_t>(first->size());
  double total = 0;
  for (int r = 0; r < rounds; ++r) {
    total += bench::TimeOnceMs([&] {
      auto res = store->QueryWith(sparql, opts);
      if (!res.ok()) std::abort();
    });
  }
  return total / rounds;
}

/// LUBM query classes for the sweep: a star (multi-predicate subject star),
/// a chain (multi-hop join path), and a scan-heavy union.
struct SweepClass {
  const char* cls;
  const char* id;
};
constexpr SweepClass kSweepClasses[] = {
    {"star", "LQ4"},   // professors of a department with contact info
    {"chain", "LQ8"},  // university -> department -> student -> email
    {"scan", "LQ6"},   // all students (huge union scan)
};

int RunThreadSweep(unsigned max_threads) {
  const double scale = bench::ScaleFactor();
  const unsigned cores = std::thread::hardware_concurrency();
  benchdata::Workload w =
      benchdata::MakeLubm(static_cast<uint64_t>(40 * scale), 4);
  const uint64_t triples = w.graph.size();
  auto store = store::RdfStore::Load(std::move(w.graph));
  if (!store.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }

  std::vector<unsigned> degrees{1};
  for (unsigned t = 2; t <= max_threads; t *= 2) degrees.push_back(t);
  if (degrees.back() != max_threads) degrees.push_back(max_threads);

  std::printf("== engine parallelism sweep: LUBM x%.0f (%llu triples), "
              "%u hardware cores ==\n",
              40 * scale, static_cast<unsigned long long>(triples), cores);
  if (cores < max_threads) {
    std::printf("note: %u threads requested on %u cores — parallel "
                "pipelines time-slice; expect overhead, not speedup.\n",
                max_threads, cores);
  }

  std::string json = "{\"bench\":\"engine_parallel\",\"scale\":";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.2f,\"cores\":%u,\"triples\":%llu,",
                scale, cores, static_cast<unsigned long long>(triples));
  json += buf;
  json += "\"sweep\":[";

  bool first_class = true;
  for (const SweepClass& sc : kSweepClasses) {
    const auto it = std::find_if(
        w.queries.begin(), w.queries.end(),
        [&](const benchdata::NamedQuery& q) { return q.id == sc.id; });
    if (it == w.queries.end()) continue;
    int64_t rows = 0;
    double base_ms = 0;
    if (!first_class) json += ",";
    first_class = false;
    json += "{\"class\":\"";
    json += sc.cls;
    json += "\",\"query\":\"";
    json += sc.id;
    json += "\",\"threads\":[";
    for (size_t i = 0; i < degrees.size(); ++i) {
      const unsigned t = degrees[i];
      const double ms = TimeQueryThreads(store->get(), it->sparql, t, &rows);
      if (t == 1) base_ms = ms;
      const double speedup = ms > 0 ? base_ms / ms : 0;
      std::printf("  %-5s %-5s threads=%-3u %9.2f ms  (%lld rows, "
                  "speedup %.2fx)\n",
                  sc.cls, sc.id, t, ms, static_cast<long long>(rows),
                  speedup);
      std::snprintf(buf, sizeof(buf),
                    "%s{\"threads\":%u,\"mean_ms\":%.3f,\"speedup\":%.3f}",
                    i == 0 ? "" : ",", t, ms, speedup);
      json += buf;
    }
    std::snprintf(buf, sizeof(buf), "],\"rows\":%lld}",
                  static_cast<long long>(rows));
    json += buf;
  }
  json += "]}\n";

  const char* json_path = "BENCH_engine.json";
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path);
  return 0;
}

}  // namespace
}  // namespace rdfrel

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      return rdfrel::RunThreadSweep(
          static_cast<unsigned>(std::max(1, std::atoi(argv[i + 1]))));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
