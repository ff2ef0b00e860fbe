/// \file bench_optimizer_flow.cc
/// Reproduces paper Figure 14 / §3.3: the optimized data flow vs the
/// sub-optimal (bottom-up, parse-order) flow on (a) the two-triple
/// micro-query with constants of frequency .75 and .01, and (b) PRBench's
/// PQ10-style traceability query, where the paper saw 4 ms vs 22.66 s.
/// Also runs the greedy-vs-exhaustive and late-fusing ablations, and a
/// UNION-width sweep timing DataFlowGraph::Build and GreedyFlowTree on
/// PQ28-shaped queries of 1 to 1000 branches (paper §3.1.1's "500 triples
/// in 100 OR patterns").

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "benchdata/prbench.h"
#include "opt/cost_model.h"
#include "opt/data_flow_graph.h"
#include "opt/flow_tree.h"
#include "opt/statistics.h"
#include "sparql/parser.h"
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

/// PRBench PQ28's shape with \p branches UNION branches of six triples:
/// four constant-object triples and a title on ?cr, and a join to ?r.
std::string WideUnionQuery(int branches) {
  static const char* kComponents[] = {"ui", "core", "db", "net", "build",
                                      "docs"};
  static const char* kStatuses[] = {"open", "in_progress", "resolved",
                                    "closed"};
  static const char* kSeverities[] = {"blocker", "major", "minor",
                                      "trivial"};
  std::string q =
      "PREFIX : <http://pr/> SELECT ?cr ?t WHERE { ";
  for (int i = 0; i < branches; ++i) {
    if (i) q += " UNION ";
    q += std::string("{ ?cr :component \"") + kComponents[i % 6] +
         "\" . ?cr :status \"" + kStatuses[(i / 6) % 4] +
         "\" . ?cr :severity \"" + kSeverities[(i / 24) % 4] +
         "\" . ?cr :title ?t . ?cr :tracksRequirement ?r . "
         "?r :priority \"1\" }";
  }
  q += " }";
  return q;
}

double MedianMs(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The optimizer's front half on ever wider UNIONs: build and greedy times
/// should grow roughly linearly with the branch count.
void UnionWidthSweep(double s) {
  std::printf("\n== UNION-width sweep: optimizer front half (PQ28 shape) "
              "==\n");
  auto w = benchdata::MakePrbench(static_cast<uint64_t>(25 * s), 3);
  opt::Statistics stats = opt::Statistics::FromGraph(w.graph);
  opt::CostModel cost(&stats, &w.graph.dictionary());
  const std::vector<int> widths = {8, 7, 6, 12, 10};
  PrintRow({"branches", "triples", "edges", "dfg ms", "greedy ms"}, widths);
  for (int branches : {1, 10, 100, 250, 500, 1000}) {
    auto q = sparql::ParseQuery(WideUnionQuery(branches));
    if (!q.ok()) {
      std::printf("  (error: %s)\n", q.status().ToString().c_str());
      return;
    }
    const int reps = branches >= 250 ? 3 : 11;
    std::vector<double> build_ms, greedy_ms;
    size_t edges = 0;
    for (int r = 0; r < reps; ++r) {
      opt::DataFlowGraph g;
      build_ms.push_back(TimeOnceMs([&] {
        g = opt::DataFlowGraph::Build(*q, cost);
      }));
      edges = g.edges().size();
      greedy_ms.push_back(TimeOnceMs([&] {
        opt::FlowTree flow = opt::GreedyFlowTree(g);
        (void)flow;
      }));
    }
    PrintRow({std::to_string(branches), std::to_string(6 * branches),
              std::to_string(edges), Ms(MedianMs(build_ms)),
              Ms(MedianMs(greedy_ms))},
             widths);
  }
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
  UnionWidthSweep(s);
  return 0;
}
