/// \file bench_engine.cc
/// google-benchmark microbenchmarks for the embedded relational engine's
/// primitives: the equality index, dictionary encoding, and
/// end-to-end SQL evaluation paths (index scan, hash join, star lookup).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "sql/database.h"
#include "sql/hash_index.h"

namespace rdfrel {
namespace {

void BM_IndexInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    sql::HashIndex idx;
    for (int64_t i = 0; i < n; ++i) {
      idx.Insert(sql::Value::Int(i * 2654435761 % n),
                 static_cast<sql::RowId>(i));
    }
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexInsert)->Arg(1000)->Arg(100000);

void BM_IndexLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  sql::HashIndex idx;
  for (int64_t i = 0; i < n; ++i) {
    idx.Insert(sql::Value::Int(i), static_cast<sql::RowId>(i));
  }
  int64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Lookup(sql::Value::Int(k++ % n)));
  }
}
BENCHMARK(BM_IndexLookup)->Arg(1000)->Arg(100000);

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

/// Runs \p sql against the shared 50k-row join database, counting the
/// probe-side rows as items processed.
void RunSqlBench(benchmark::State& state, const std::string& sql) {
  static sql::Database* db = SetupJoinDb(50000);
  for (auto _ : state) {
    auto res = db->Query(sql);
    if (!res.ok()) std::abort();
    benchmark::DoNotOptimize(res->rows.size());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}

void BM_SqlScanFilterBatch(benchmark::State& state) {
  RunSqlBench(state, "SELECT l.a FROM l WHERE l.b > 4986");
}
BENCHMARK(BM_SqlScanFilterBatch);

void BM_SqlHashJoinBatch(benchmark::State& state) {
  RunSqlBench(state, "SELECT l.a FROM l, r WHERE l.b = r.c AND l.a < 5000");
}
BENCHMARK(BM_SqlHashJoinBatch);

void BM_SqlIndexNLJoinBatch(benchmark::State& state) {
  RunSqlBench(state, "SELECT l.b, r.c FROM l, r WHERE l.a = r.a AND l.b = 13");
}
BENCHMARK(BM_SqlIndexNLJoinBatch);

}  // namespace
}  // namespace rdfrel

BENCHMARK_MAIN();
