/// \file bench_coloring.cc
/// Reproduces paper Table 4 (graph-coloring results) and the §2.3 spill
/// study: columns required and coverage per dataset, spills under full
/// coloring vs 10%-sample coloring vs pure hashing, and a column-budget
/// (k) sweep ablation.

#include <cstdio>

#include "bench/harness.h"
#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "schema/coloring_mapping.h"
#include "schema/hash_mapping.h"
#include "schema/loader.h"
#include "util/random.h"

using namespace rdfrel;        // NOLINT
using namespace rdfrel::bench; // NOLINT

namespace {

schema::LoadStats LoadWith(
    const rdf::Graph& g,
    std::shared_ptr<const schema::PredicateMapping> direct,
    std::shared_ptr<const schema::PredicateMapping> reverse, uint32_t kd,
    uint32_t kr) {
  sql::Database db;
  schema::Db2RdfConfig cfg;
  cfg.k_direct = kd;
  cfg.k_reverse = kr;
  auto sch = schema::Db2RdfSchema::Create(&db, cfg).value();
  schema::Loader loader(sch.get(), direct, reverse);
  return loader.BulkLoad(g).value();
}

/// A 10% random sample of the graph (the paper's incremental-coloring
/// experiment).
rdf::Graph Sample10(const rdf::Graph& g, uint64_t seed) {
  Random rng(seed);
  rdf::Graph out;
  for (const auto& t : g.triples()) {
    if (rng.Bernoulli(0.1)) {
      auto decoded = g.dictionary().DecodeTriple(t);
      if (decoded.ok()) out.Add(*decoded);
    }
  }
  return out;
}

/// Re-keys a coloring built on a sample to the ids of the full graph.
schema::ColoringResult Rekey(const schema::ColoringResult& r,
                             const rdf::Graph& sample,
                             const rdf::Graph& full) {
  schema::ColoringResult out;
  out.colors_used = r.colors_used;
  out.coverage = r.coverage;
  for (const auto& [id, color] : r.assignment) {
    auto term = sample.dictionary().Decode(id);
    if (!term.ok()) continue;
    uint64_t full_id = full.dictionary().Lookup(*term);
    if (full_id != 0) out.assignment.emplace(full_id, color);
  }
  return out;
}

void Report(const std::string& name, const rdf::Graph& g,
            uint32_t budget) {
  using schema::ColoringMapping;
  using schema::ColorInterferenceGraph;
  using schema::HashMapping;
  using schema::InterferenceGraph;

  InterferenceGraph dig = InterferenceGraph::FromGraphBySubject(g);
  InterferenceGraph rig = InterferenceGraph::FromGraphByObject(g);
  auto dr = ColorInterferenceGraph(dig, budget);
  auto rr = ColorInterferenceGraph(rig, budget);
  uint32_t kd = std::max(dr.colors_used, 1u);
  uint32_t kr = std::max(rr.colors_used, 1u);

  std::printf("| %-9s | %9llu | %6zu | %4u | %6.1f%% | %4u | %6.1f%% |\n",
              name.c_str(), static_cast<unsigned long long>(g.size()),
              dig.num_nodes(), kd, 100.0 * dr.coverage, kr,
              100.0 * rr.coverage);

  // Spill study.
  auto color_d = std::make_shared<ColoringMapping>(dr, kd, 2, 1);
  auto color_r = std::make_shared<ColoringMapping>(rr, kr, 2, 2);
  auto full = LoadWith(g, color_d, color_r, kd, kr);

  rdf::Graph sample = Sample10(g, 99);
  InterferenceGraph sdig = InterferenceGraph::FromGraphBySubject(sample);
  InterferenceGraph srig = InterferenceGraph::FromGraphByObject(sample);
  auto sdr = Rekey(ColorInterferenceGraph(sdig, budget), sample, g);
  auto srr = Rekey(ColorInterferenceGraph(srig, budget), sample, g);
  auto scolor_d = std::make_shared<ColoringMapping>(sdr, kd, 2, 1);
  auto scolor_r = std::make_shared<ColoringMapping>(srr, kr, 2, 2);
  auto sampled = LoadWith(g, scolor_d, scolor_r, kd, kr);

  auto hash_d = std::make_shared<HashMapping>(kd, 2, 1);
  auto hash_r = std::make_shared<HashMapping>(kr, 2, 2);
  auto hashed = LoadWith(g, hash_d, hash_r, kd, kr);

  std::printf("    spills (DPH/RPH rows): full-coloring %llu/%llu | "
              "10%%-sample %llu/%llu | hashing %llu/%llu (of %llu/%llu "
              "rows)\n",
              static_cast<unsigned long long>(full.dph_spill_rows),
              static_cast<unsigned long long>(full.rph_spill_rows),
              static_cast<unsigned long long>(sampled.dph_spill_rows),
              static_cast<unsigned long long>(sampled.rph_spill_rows),
              static_cast<unsigned long long>(hashed.dph_spill_rows),
              static_cast<unsigned long long>(hashed.rph_spill_rows),
              static_cast<unsigned long long>(full.dph_rows),
              static_cast<unsigned long long>(full.rph_rows));
}

}  // namespace

int main() {
  double s = ScaleFactor();
  std::printf("== Table 4: graph coloring results ==\n");
  std::printf("| dataset   |   triples | preds |  dph | dcover |  rph | "
              "rcover |\n");
  std::printf("|-----------|-----------|-------|------|--------|------|"
              "--------|\n");
  {
    auto w = benchdata::MakeSp2Bench(static_cast<uint64_t>(50 * s), 1);
    Report("SP2Bench", w.graph, 64);
  }
  {
    auto w = benchdata::MakePrbench(static_cast<uint64_t>(20 * s), 1);
    Report("PRBench", w.graph, 64);
  }
  {
    auto w = benchdata::MakeLubm(static_cast<uint64_t>(15 * s), 1);
    Report("LUBM", w.graph, 64);
  }
  {
    auto w = benchdata::MakeDbpedia(static_cast<uint64_t>(15000 * s),
                                    static_cast<uint64_t>(2000 * s), 1);
    Report("DBpedia", w.graph, 75);
  }
  std::printf(
      "\nShape check (paper): coloring fits each dataset in far fewer "
      "columns than\none-per-predicate, covers ~100%% (DBpedia ~94-99%%), "
      "and sample-based coloring\nadds only marginal spills; pure hashing "
      "spills more.\n");

  // Ablation: column budget (k) sweep on the DBpedia-like data.
  std::printf("\n== Ablation: column budget vs coverage/spills "
              "(DBpedia-like) ==\n");
  auto w = benchdata::MakeDbpedia(static_cast<uint64_t>(8000 * s),
                                  static_cast<uint64_t>(1500 * s), 1);
  for (uint32_t budget : {8u, 16u, 32u, 64u, 128u}) {
    auto ig = schema::InterferenceGraph::FromGraphBySubject(w.graph);
    auto r = schema::ColorInterferenceGraph(ig, budget);
    uint32_t k = std::max(r.colors_used, 1u);
    auto cd = std::make_shared<schema::ColoringMapping>(r, k, 2, 1);
    auto ch = std::make_shared<schema::HashMapping>(8, 2, 2);
    auto stats = LoadWith(w.graph, cd, ch, k, 8);
    std::printf("budget %3u: colors %3u coverage %5.1f%% punted %4zu "
                "dph-spill-rows %llu\n",
                budget, r.colors_used, 100.0 * r.coverage, r.punted.size(),
                static_cast<unsigned long long>(stats.dph_spill_rows));
  }
  return 0;
}
