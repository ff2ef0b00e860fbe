/// \file bench_optimizer_flow.cc
/// Reproduces paper Figure 14 / §3.3: the optimized data flow vs the
/// sub-optimal (bottom-up, parse-order) flow on (a) the two-triple
/// micro-query with constants of frequency .75 and .01, and (b) PRBench's
/// PQ10-style traceability query, where the paper saw 4 ms vs 22.66 s.
/// Also runs the greedy-vs-exhaustive and late-fusing ablations.

#include <cstdio>

#include "bench/harness.h"
#include "benchdata/prbench.h"
#include "store/rdf_store.h"
#include "util/random.h"

using namespace rdfrel;        // NOLINT
using namespace rdfrel::bench; // NOLINT

namespace {

/// §3.3's controlled dataset: constant O1 appears in 75% of subjects'
/// SV1 values, O2 in 1% of SV2 values.
rdf::Graph MicroFlowGraph(uint64_t subjects) {
  rdf::Graph g;
  Random rng(11);
  for (uint64_t s = 0; s < subjects; ++s) {
    rdf::Term subject = rdf::Term::Iri("http://f/s" + std::to_string(s));
    bool o1 = rng.Bernoulli(0.75);
    bool o2 = rng.Bernoulli(0.01);
    g.Add({subject, rdf::Term::Iri("http://f/SV1"),
           rdf::Term::Literal(o1 ? "O1" : "other1-" + std::to_string(s))});
    g.Add({subject, rdf::Term::Iri("http://f/SV2"),
           rdf::Term::Literal(o2 ? "O2" : "other2-" + std::to_string(s))});
    // Filler predicates so scans are not free.
    g.Add({subject, rdf::Term::Iri("http://f/SV3"),
           rdf::Term::Literal(std::string("x").append(std::to_string(s)))});
  }
  return g;
}

double TimeWith(store::RdfStore* store, const std::string& q,
                store::FlowMode mode, int rounds = 3) {
  store::QueryOptions opts;
  opts.flow = mode;
  // Warm-up.
  auto first = store->QueryWith(q, opts);
  if (!first.ok()) {
    std::printf("  (error: %s)\n", first.status().ToString().c_str());
    return -1;
  }
  double total = 0;
  for (int r = 0; r < rounds; ++r) {
    total += TimeOnceMs([&] {
      auto res = store->QueryWith(q, opts);
      (void)res;
    });
  }
  return total / rounds;
}

}  // namespace

int main() {
  double s = ScaleFactor();

  std::printf("== Figure 14: optimized vs sub-optimal flow ==\n\n");
  {
    uint64_t subjects = static_cast<uint64_t>(30000 * s);
    auto store = store::RdfStore::Load(MicroFlowGraph(subjects)).value();
    std::string q =
        "PREFIX : <http://f/> SELECT ?s WHERE { ?s :SV1 \"O1\" . ?s :SV2 "
        "\"O2\" }";
    double opt = TimeWith(store.get(), q, store::FlowMode::kGreedy);
    double naive = TimeWith(store.get(), q, store::FlowMode::kParseOrder);
    std::printf("micro 2-triple query (O1 freq .75, O2 freq .01), %llu "
                "subjects:\n  optimized flow (start on O2): %.2f ms\n  "
                "sub-optimal flow (start on O1): %.2f ms  -> %.1fx\n\n",
                static_cast<unsigned long long>(subjects), opt, naive,
                naive / opt);
    std::printf("optimized SQL:\n%s\n\n",
                store->TranslateToSql(q).ValueOr("<err>").c_str());
    store::QueryOptions po;
    po.flow = store::FlowMode::kParseOrder;
    std::printf("sub-optimal SQL:\n%s\n\n",
                store->TranslateWith(q, po).ValueOr("<err>").c_str());
  }

  {
    auto w = benchdata::MakePrbench(static_cast<uint64_t>(25 * s), 3);
    auto store = store::RdfStore::Load(std::move(w.graph)).value();
    const auto& pq10 = w.queries[9];
    double opt = TimeWith(store.get(), pq10.sparql,
                          store::FlowMode::kGreedy);
    double naive = TimeWith(store.get(), pq10.sparql,
                            store::FlowMode::kParseOrder);
    std::printf("PRBench PQ10 (traceability chain):\n  optimized flow: "
                "%.2f ms\n  sub-optimal flow: %.2f ms  -> %.1fx\n",
                opt, naive, naive / opt);
    std::printf("(paper: 4 ms vs 22.66 s on the full-size PRBench)\n\n");

    // Ablation: greedy vs exhaustive flow (small queries only).
    const auto& pq15 = w.queries[14];
    double greedy = TimeWith(store.get(), pq15.sparql,
                             store::FlowMode::kGreedy);
    double exact = TimeWith(store.get(), pq15.sparql,
                            store::FlowMode::kExhaustive);
    std::printf("== Ablation: greedy vs exhaustive flow (PQ15) ==\n"
                "  greedy: %.2f ms; exhaustive: %.2f ms (identical plans "
                "mean identical times)\n\n",
                greedy, exact);

    // Ablation: late fusing.
    store::QueryOptions lf_on, lf_off;
    lf_off.late_fusing = false;
    const auto& pq29 = w.queries[28];
    auto a = store->QueryWith(pq29.sparql, lf_on);
    auto b = store->QueryWith(pq29.sparql, lf_off);
    double t_on = TimeOnceMs([&] {
      auto r = store->QueryWith(pq29.sparql, lf_on);
      (void)r;
    });
    double t_off = TimeOnceMs([&] {
      auto r = store->QueryWith(pq29.sparql, lf_off);
      (void)r;
    });
    std::printf("== Ablation: late fusing (PQ29) ==\n"
                "  flow-ordered fusion: %.2f ms; parse-ordered fusion: "
                "%.2f ms (rows %lld vs %lld)\n",
                t_on, t_off,
                a.ok() ? static_cast<long long>(a->size()) : -1,
                b.ok() ? static_cast<long long>(b->size()) : -1);
  }
  std::printf(
      "\nShape check (paper): the optimized flow wins by several-fold on "
      "the micro query\n(13 ms vs 65 ms = 5x in the paper) and by orders "
      "of magnitude on PQ10-style\nqueries; greedy matches exhaustive "
      "here.\n");
  return 0;
}
