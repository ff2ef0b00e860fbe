/// \file bench_summary.cc
/// Reproduces paper Figure 15: the cross-dataset summary. The paper
/// compared five systems (DB2RDF, Jena, Sesame, Virtuoso, RDF-3X) over
/// four datasets; since those systems are not rerunnable here, the
/// comparison isolates the same two variables on a common substrate:
/// storage layout (DB2RDF vs triple-store vs predicate-oriented) and
/// optimizer (DB2RDF with the hybrid optimizer vs DB2RDF with the
/// bottom-up parse-order flow standing in for a system without it).

#include <cstdio>
#include <memory>

#include "bench/dataset_bench.h"
#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

using namespace rdfrel;        // NOLINT
using namespace rdfrel::bench; // NOLINT

namespace {

/// DB2RDF with the sub-optimal bottom-up flow (the "no hybrid optimizer"
/// system surrogate).
class NaiveFlowStore final : public store::SparqlStore {
 public:
  explicit NaiveFlowStore(std::unique_ptr<store::RdfStore> inner)
      : inner_(std::move(inner)) {
    opts_.flow = store::FlowMode::kParseOrder;
  }
  Status QueryWith(std::string_view sparql, const store::QueryOptions& opts,
                   store::RowSink& sink) override {
    return inner_->QueryWith(sparql, Pin(opts), sink);
  }
  using store::SparqlStore::QueryWith;
  Result<std::string> TranslateWith(
      std::string_view sparql, const store::QueryOptions& opts) override {
    return inner_->TranslateWith(sparql, Pin(opts));
  }
  Result<Explanation> Explain(std::string_view sparql,
                              const store::QueryOptions& opts) override {
    return inner_->Explain(sparql, Pin(opts));
  }
  rdfrel::util::CacheStats plan_cache_stats() const override {
    return inner_->plan_cache_stats();
  }
  std::string name() const override { return "DB2RDF-naive-flow"; }
  const rdf::Dictionary& dictionary() const override {
    return inner_->dictionary();
  }

 private:
  /// Forces the bottom-up flow while keeping the caller's other knobs.
  store::QueryOptions Pin(store::QueryOptions opts) const {
    opts.flow = opts_.flow;
    return opts;
  }

  std::unique_ptr<store::RdfStore> inner_;
  store::QueryOptions opts_;
};

template <typename MakeFn>
void RunOne(const std::string& name, MakeFn make) {
  benchdata::Workload w = make();
  auto entity = store::RdfStore::Load(make().graph).value();
  auto naive =
      std::make_unique<NaiveFlowStore>(store::RdfStore::Load(make().graph)
                                           .value());
  auto triple = store::TripleStoreBackend::Load(make().graph).value();
  auto pred = store::PredicateStoreBackend::Load(make().graph).value();
  std::printf("\n########## %s ##########\n", name.c_str());
  auto summaries = RunDataset(
      w, {{"DB2RDF", entity.get()},
          {"DB2RDF-naive-flow", naive.get()},
          {"Triple-store", triple.get()},
          {"Predicate-oriented", pred.get()}},
      /*rounds=*/2);
  PrintSummaries(name, w.graph.size(), w.queries.size(), summaries);
}

}  // namespace

int main() {
  double s = ScaleFactor();
  std::printf("== Figure 15: summary across all datasets ==\n");
  RunOne("LUBM", [&] {
    return benchdata::MakeLubm(static_cast<uint64_t>(15 * s), 4);
  });
  RunOne("SP2Bench", [&] {
    return benchdata::MakeSp2Bench(static_cast<uint64_t>(40 * s), 4);
  });
  RunOne("DBpedia", [&] {
    return benchdata::MakeDbpedia(static_cast<uint64_t>(12000 * s),
                                  static_cast<uint64_t>(1500 * s), 4);
  });
  RunOne("PRBench", [&] {
    return benchdata::MakePrbench(static_cast<uint64_t>(20 * s), 4);
  });
  std::printf(
      "\nShape check (paper): DB2RDF completes every query (77/78 in the "
      "paper) and has\nthe best or near-best means; the naive-flow variant "
      "and the baseline layouts\nfall behind on the complex queries.\n");
  return 0;
}
