/// Tests for the concurrent read path and the plan/translation cache:
/// cache hits on repeated queries, invalidation on Insert/Delete (including
/// materialized property-path closure tables), the uniform QueryWith /
/// Explain surface across all three backends, a reader/writer stress test
/// and a durability-vs-Close race, meant to run under -fsanitize=thread
/// (see scripts/check.sh).

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "persist/env.h"
#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::store {
namespace {

using rdf::Term;

rdf::Graph ChainGraph(int n) {
  rdf::Graph g;
  auto iri = [](const std::string& s) { return Term::Iri("http://ex/" + s); };
  for (int i = 0; i < n; ++i) {
    g.Add({iri(std::string("n").append(std::to_string(i))), iri("next"),
           iri(std::string("n").append(std::to_string(i + 1)))});
    g.Add({iri(std::string("n").append(std::to_string(i))), iri("label"),
           Term::Literal("node " + std::to_string(i))});
  }
  return g;
}

constexpr const char* kPrefix = "PREFIX : <http://ex/> ";

std::multiset<std::string> Signature(const ResultSet& rs) {
  std::multiset<std::string> out;
  for (const auto& row : rs.rows) {
    std::string sig;
    for (const auto& v : row) {
      sig += v.has_value() ? v->ToNTriples() : "UNBOUND";
      sig += "\x1f";
    }
    out.insert(sig);
  }
  return out;
}

TEST(PlanCacheTest, IdenticalQueriesHitTheCache) {
  auto store = RdfStore::Load(ChainGraph(10)).value();
  const std::string q =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x :next ?y }";
  auto first = store->Query(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  util::CacheStats after_miss = store->plan_cache_stats();
  EXPECT_EQ(after_miss.hits, 0u);
  EXPECT_EQ(after_miss.misses, 1u);
  EXPECT_EQ(after_miss.entries, 1u);

  auto second = store->Query(q);
  ASSERT_TRUE(second.ok());
  util::CacheStats after_hit = store->plan_cache_stats();
  EXPECT_EQ(after_hit.hits, 1u);
  EXPECT_EQ(after_hit.misses, 1u);
  EXPECT_EQ(Signature(*first), Signature(*second));
}

TEST(PlanCacheTest, DifferentOptionsAreDifferentEntries) {
  auto store = RdfStore::Load(ChainGraph(10)).value();
  const std::string q =
      std::string(kPrefix) +
      "SELECT ?x ?l WHERE { ?x :next ?y . ?x :label ?l }";
  QueryOptions greedy;
  QueryOptions naive;
  naive.flow = FlowMode::kParseOrder;
  auto a = store->QueryWith(q, greedy);
  auto b = store->QueryWith(q, naive);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(Signature(*a), Signature(*b));
  util::CacheStats s = store->plan_cache_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  // Re-running each hits its own entry.
  ASSERT_TRUE(store->QueryWith(q, greedy).ok());
  ASSERT_TRUE(store->QueryWith(q, naive).ok());
  EXPECT_EQ(store->plan_cache_stats().hits, 2u);
}

TEST(PlanCacheTest, InsertInvalidatesCacheAndResultsReflectWrite) {
  auto store = RdfStore::Load(ChainGraph(5)).value();
  const std::string q =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x :next ?y }";
  auto before = store->Query(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 5u);
  ASSERT_TRUE(store->Query(q).ok());  // warm the cache
  EXPECT_EQ(store->plan_cache_stats().hits, 1u);

  ASSERT_TRUE(store
                  ->Insert({Term::Iri("http://ex/n99"),
                            Term::Iri("http://ex/next"),
                            Term::Iri("http://ex/n100")})
                  .ok());
  EXPECT_EQ(store->plan_cache_stats().entries, 0u) << "cache not cleared";
  auto after = store->Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 6u);
}

TEST(PlanCacheTest, DeleteInvalidatesClosureTables) {
  auto store = RdfStore::Load(ChainGraph(4)).value();
  // n0 -> n1 -> n2 -> n3 -> n4: n0 reaches 4 nodes transitively.
  const std::string q =
      std::string(kPrefix) + "SELECT ?y WHERE { :n0 :next+ ?y }";
  auto before = store->Query(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->size(), 4u);
  ASSERT_TRUE(store->Query(q).ok());  // cached path plan
  ASSERT_GE(store->plan_cache_stats().hits, 1u);

  // Cutting the chain at n2 shrinks n0's reachable set to {n1, n2}.
  ASSERT_TRUE(store
                  ->Delete({Term::Iri("http://ex/n2"),
                            Term::Iri("http://ex/next"),
                            Term::Iri("http://ex/n3")})
                  .ok());
  EXPECT_EQ(store->plan_cache_stats().entries, 0u);
  auto after = store->Query(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->size(), 2u);
}

TEST(PlanCacheTest, BaselineBackendsCacheToo) {
  const std::string q =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x :next ?y }";
  auto triple = TripleStoreBackend::Load(ChainGraph(6)).value();
  auto pred = PredicateStoreBackend::Load(ChainGraph(6)).value();
  for (SparqlStore* s : {static_cast<SparqlStore*>(triple.get()),
                         static_cast<SparqlStore*>(pred.get())}) {
    ASSERT_TRUE(s->Query(q).ok()) << s->name();
    ASSERT_TRUE(s->Query(q).ok()) << s->name();
    util::CacheStats cs = s->plan_cache_stats();
    EXPECT_EQ(cs.misses, 1u) << s->name();
    EXPECT_EQ(cs.hits, 1u) << s->name();
  }
}

TEST(UniformInterfaceTest, AllBackendsAnswerQueryWithAndExplain) {
  const std::string q =
      std::string(kPrefix) +
      "SELECT ?x ?l WHERE { ?x :next ?y . ?x :label ?l }";
  auto db2rdf = RdfStore::Load(ChainGraph(8)).value();
  auto triple = TripleStoreBackend::Load(ChainGraph(8)).value();
  auto pred = PredicateStoreBackend::Load(ChainGraph(8)).value();
  std::vector<SparqlStore*> stores = {db2rdf.get(), triple.get(),
                                      pred.get()};
  QueryOptions opts;
  opts.flow = FlowMode::kGreedy;

  auto reference = db2rdf->QueryWith(q, opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (SparqlStore* s : stores) {
    auto via_with = s->QueryWith(q, opts);
    ASSERT_TRUE(via_with.ok()) << s->name() << ": "
                               << via_with.status().ToString();
    EXPECT_EQ(Signature(*via_with), Signature(*reference)) << s->name();
    // The thin overload must agree with explicit defaults.
    auto via_plain = s->Query(q);
    ASSERT_TRUE(via_plain.ok()) << s->name();
    EXPECT_EQ(Signature(*via_plain), Signature(*via_with)) << s->name();

    auto ex = s->Explain(q, opts);
    ASSERT_TRUE(ex.ok()) << s->name() << ": " << ex.status().ToString();
    EXPECT_FALSE(ex->parse_tree.empty()) << s->name();
    EXPECT_FALSE(ex->flow_tree.empty()) << s->name();
    EXPECT_FALSE(ex->exec_tree.empty()) << s->name();
    EXPECT_FALSE(ex->plan_tree.empty()) << s->name();
    EXPECT_FALSE(ex->sql.empty()) << s->name();
    // TranslateWith produces the SQL the store executes; Explain agrees.
    auto sql = s->TranslateWith(q, opts);
    ASSERT_TRUE(sql.ok()) << s->name();
    EXPECT_EQ(*sql, ex->sql) << s->name();
  }
}

TEST(ConcurrencyTest, ParallelReadersSeeConsistentResults) {
  auto store = RdfStore::Load(ChainGraph(32)).value();
  const std::string q =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x :next ?y }";
  auto expected = store->Query(q);
  ASSERT_TRUE(expected.ok());
  const auto want = Signature(*expected);

  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto r = store->Query(q);
        if (!r.ok() || Signature(*r) != want) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  util::CacheStats s = store->plan_cache_stats();
  EXPECT_GE(s.hits, static_cast<uint64_t>(kThreads * kIters - kThreads));
}

TEST(ConcurrencyTest, ReadersAndWriterStress) {
  auto store = RdfStore::Load(ChainGraph(16)).value();
  const std::vector<std::string> queries = {
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x :next ?y }",
      std::string(kPrefix) + "SELECT ?l WHERE { :n3 :label ?l }",
      std::string(kPrefix) +
          "SELECT ?x ?l WHERE { ?x :next ?y . ?x :label ?l }",
      std::string(kPrefix) + "SELECT ?y WHERE { :n0 :next+ ?y }",
  };

  constexpr int kReaders = 8;
  constexpr int kReadIters = 40;
  constexpr int kWriteIters = 30;
  std::atomic<int> reader_errors{0};
  std::atomic<int> writer_errors{0};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadIters; ++i) {
        const std::string& q =
            queries[static_cast<size_t>(t + i) % queries.size()];
        auto r = store->Query(q);
        // Results legitimately change under the writer; only hard errors
        // count as failures.
        if (!r.ok()) reader_errors.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    auto iri = [](const std::string& s) {
      return Term::Iri("http://ex/" + s);
    };
    for (int i = 0; i < kWriteIters; ++i) {
      rdf::Triple t{iri(std::string("w").append(std::to_string(i))),
                    iri("next"),
                    iri(std::string("w").append(std::to_string(i + 1)))};
      if (!store->Insert(t).ok()) writer_errors.fetch_add(1);
      if (i % 3 == 0) {
        if (!store->Delete(t).ok()) writer_errors.fetch_add(1);
      }
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(writer_errors.load(), 0);

  // The store is still coherent after the churn.
  auto sane = store->Query(std::string(kPrefix) +
                           "SELECT ?x ?y WHERE { ?x :next ?y }");
  ASSERT_TRUE(sane.ok()) << sane.status().ToString();
  EXPECT_GT(sane->size(), 0u);
}

TEST(ConcurrencyTest, BaselineDurabilityCallsTakeTheStoreLock) {
  // Close detaches the persistence manager while another thread reads its
  // counters and flushes it: every one of these calls goes through the
  // store lock, so the reader sees the manager or its absence, never a
  // half-reset pointer.
  persist::MemEnv env;
  PersistOptions opts;
  opts.env = &env;
  auto triple = TripleStoreBackend::Load(ChainGraph(8)).value();
  auto pred = PredicateStoreBackend::Load(ChainGraph(8)).value();
  for (RelationalStore* store : {static_cast<RelationalStore*>(triple.get()),
                                 static_cast<RelationalStore*>(pred.get())}) {
    ASSERT_TRUE(store->EnablePersistence(store->name(), opts).ok());
    std::atomic<bool> started{false};
    std::atomic<bool> stop{false};
    std::atomic<int> errors{0};
    std::thread reader([&] {
      while (!stop.load()) {
        (void)store->persist_stats();
        if (!store->Flush().ok()) errors.fetch_add(1);
        started.store(true);
      }
    });
    while (!started.load()) std::this_thread::yield();
    EXPECT_TRUE(store->Close().ok()) << store->name();
    stop.store(true);
    reader.join();
    EXPECT_EQ(errors.load(), 0) << store->name();
    EXPECT_FALSE(store->persistent()) << store->name();
  }
}

}  // namespace
}  // namespace rdfrel::store
