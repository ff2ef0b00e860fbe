/// \file bench_null_overhead.cc
/// Reproduces the §2.3 NULL-overhead study: a uniform 5-predicate dataset
/// is loaded into DPH relations widened with +5/+45/+95 NULL-only
/// predicate/value column pairs; the paper observed ~10% extra storage for
/// a 20x width increase, and up to 2x slowdown on the fastest queries.
///
/// "DPH bytes" is the size of the live rows under a null-bitmap row
/// encoding (what a disk-backed engine such as the paper's DB2 stores);
/// the engine itself holds rows decoded, so the figure measures the
/// layout, not this process's memory.

#include <cstdio>

#include "bench/harness.h"
#include "schema/coloring_mapping.h"
#include "schema/hash_mapping.h"
#include "schema/loader.h"
#include "sql/database.h"

using namespace rdfrel;        // NOLINT
using namespace rdfrel::bench; // NOLINT

namespace {

rdf::Graph UniformFivePredGraph(uint64_t subjects) {
  rdf::Graph g;
  for (uint64_t s = 0; s < subjects; ++s) {
    rdf::Term subject = rdf::Term::Iri("http://n/s" + std::to_string(s));
    for (int p = 0; p < 5; ++p) {
      g.Add({subject, rdf::Term::Iri("http://n/p" + std::to_string(p)),
             rdf::Term::Literal(std::string("v").append(
                 std::to_string(s * 5 + static_cast<uint64_t>(p))))});
    }
  }
  return g;
}

/// Bytes of \p row under a null-bitmap encoding: one bit per column, and
/// only the non-NULL values materialized (8 bytes per BIGINT or DOUBLE).
/// NULL columns cost one bit each.
size_t EncodedRowSize(const sql::Row& row) {
  size_t size = (row.size() + 7) / 8;
  for (const sql::Value& v : row) {
    if (!v.is_null()) size += 8;
  }
  return size;
}

/// Encoded bytes of every live row of \p table.
size_t EncodedTableBytes(const sql::Table& table) {
  size_t bytes = 0;
  Status st = table.Scan([&](sql::RowId, const sql::Row& row) {
    bytes += EncodedRowSize(row);
    return Status::OK();
  });
  if (!st.ok()) std::abort();
  return bytes;
}

struct Loaded {
  sql::Database db;
  std::unique_ptr<schema::Db2RdfSchema> schema;
};

/// Loads the 5-predicate data into a DPH with 5 + extra columns; the 5 real
/// predicates map to the first 5 columns, the rest stay entirely NULL.
std::unique_ptr<Loaded> LoadWidened(const rdf::Graph& g, uint32_t extra) {
  auto out = std::make_unique<Loaded>();
  schema::Db2RdfConfig cfg;
  cfg.k_direct = 5 + extra;
  cfg.k_reverse = 5;
  out->schema = schema::Db2RdfSchema::Create(&out->db, cfg).value();
  // Map the 5 predicates injectively onto columns 0..4 (coloring-style).
  schema::ColoringResult r;
  rdf::Dictionary& dict = const_cast<rdf::Graph&>(g).dictionary();
  for (int p = 0; p < 5; ++p) {
    uint64_t id = dict.Lookup(rdf::Term::Iri("http://n/p" +
                                             std::to_string(p)));
    r.assignment.emplace(id, static_cast<uint32_t>(p));
  }
  r.colors_used = 5;
  auto direct = std::make_shared<schema::ColoringMapping>(r, 5 + extra);
  auto reverse = std::make_shared<schema::HashMapping>(5, 2, 7);
  schema::Loader loader(out->schema.get(), direct, reverse);
  auto st = loader.BulkLoad(g);
  if (!st.ok()) std::abort();
  return out;
}

}  // namespace

int main() {
  const uint64_t subjects =
      static_cast<uint64_t>(40000 * ScaleFactor());
  rdf::Graph g = UniformFivePredGraph(subjects);
  std::printf("== §2.3 NULL overhead: %llu subjects x 5 predicates = %llu "
              "triples ==\n\n",
              static_cast<unsigned long long>(subjects),
              static_cast<unsigned long long>(g.size()));
  std::printf("| extra NULL cols | DPH bytes | vs base | point query | "
              "scan query |\n");
  std::printf("|-----------------|-----------|---------|-------------|"
              "------------|\n");

  // Queries: a fast point lookup (entry index) and a column scan.
  auto subject_id = [&](uint64_t s) {
    return static_cast<int64_t>(g.dictionary().Lookup(
        rdf::Term::Iri("http://n/s" + std::to_string(s))));
  };

  double base_bytes = 0;
  for (uint32_t extra : {0u, 5u, 45u, 95u}) {
    auto loaded = LoadWidened(g, extra);
    double bytes =
        static_cast<double>(EncodedTableBytes(*loaded->schema->dph()));
    if (extra == 0) base_bytes = bytes;

    // Fast query: 2000 point lookups through the entry index.
    std::string point_sql =
        "SELECT T.val0 FROM dph AS T WHERE T.entry = ";
    double point_ms = TimeOnceMs([&] {
      for (uint64_t i = 0; i < 2000; ++i) {
        auto r = loaded->db.Query(
            point_sql + std::to_string(subject_id(i % subjects)));
        if (!r.ok()) std::abort();
      }
    });
    // Longer query: full scan with a predicate-column filter.
    double scan_ms = TimeOnceMs([&] {
      auto r = loaded->db.Query(
          "SELECT T.entry FROM dph AS T WHERE T.val2 = -1");
      if (!r.ok()) std::abort();
    });
    std::printf("| %15u | %9.0f | %6.1f%% | %8.2f ms | %7.2f ms |\n",
                extra, bytes, 100.0 * bytes / base_bytes, point_ms,
                scan_ms);
  }
  std::printf(
      "\nShape check (paper): widening the relation ~20x with NULL columns "
      "costs only\n~10%% storage (null-compressed rows), while the fastest "
      "queries slow down\nnoticeably more (up to ~2x) — the motivation for "
      "minimizing columns via coloring.\n");
  return 0;
}
