/// End-to-end tests of the SPARQL HTTP endpoint over real localhost
/// sockets: protocol conformance (keep-alive, formats, error codes),
/// streamed-vs-materialized body equivalence, deadline-driven 504s, and
/// overload shedding under a saturated worker pool.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "benchdata/micro.h"
#include "rdf/graph.h"
#include "serve/client.h"
#include "serve/result_writer.h"
#include "serve/server.h"
#include "store/rdf_store.h"

namespace rdfrel::serve {
namespace {

constexpr const char* kSmallQuery =
    "PREFIX : <http://micro/> SELECT ?s WHERE { ?s :SV5 ?o }";
constexpr const char* kStarQuery =
    "PREFIX : <http://micro/> SELECT ?s WHERE { "
    "?s :SV1 ?a . ?s :SV2 ?b . ?s :SV3 ?c . ?s :SV4 ?d }";

/// Forwards everything to an inner store; decorators below perturb
/// QueryWith only.
class DelegatingStore : public store::SparqlStore {
 public:
  explicit DelegatingStore(store::SparqlStore* inner) : inner_(inner) {}

  using store::SparqlStore::QueryWith;
  Status QueryWith(std::string_view sparql, const store::QueryOptions& opts,
                   store::RowSink& sink) override {
    return inner_->QueryWith(sparql, opts, sink);
  }
  Result<std::string> TranslateWith(
      std::string_view sparql, const store::QueryOptions& opts) override {
    return inner_->TranslateWith(sparql, opts);
  }
  Result<Explanation> Explain(std::string_view sparql,
                              const store::QueryOptions& opts) override {
    return inner_->Explain(sparql, opts);
  }
  util::CacheStats plan_cache_stats() const override {
    return inner_->plan_cache_stats();
  }
  util::CacheStats page_cache_stats() const override {
    return inner_->page_cache_stats();
  }
  persist::PersistStats persist_stats() const override {
    return inner_->persist_stats();
  }
  std::string name() const override { return inner_->name(); }
  const rdf::Dictionary& dictionary() const override {
    return inner_->dictionary();
  }

 protected:
  store::SparqlStore* inner_;
};

/// Burns wall-clock before delegating, so a short ?timeout= deadline is
/// already expired when the executor makes its first batch-boundary check —
/// a deterministic 504.
class SlowStore final : public DelegatingStore {
 public:
  using DelegatingStore::DelegatingStore;
  using store::SparqlStore::QueryWith;
  Status QueryWith(std::string_view sparql, const store::QueryOptions& opts,
                   store::RowSink& sink) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return DelegatingStore::QueryWith(sparql, opts, sink);
  }
};

/// Parks every query on a latch, so the test can saturate the worker pool
/// deterministically.
class BlockingStore final : public DelegatingStore {
 public:
  using DelegatingStore::DelegatingStore;
  using store::SparqlStore::QueryWith;
  Status QueryWith(std::string_view sparql, const store::QueryOptions& opts,
                   store::RowSink& sink) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    lock.unlock();
    return DelegatingStore::QueryWith(sparql, opts, sink);
  }

  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto workload = benchdata::MakeMicro(400, /*seed=*/7);
    auto st = store::RdfStore::Load(std::move(workload.graph));
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    micro_store_ = std::move(*st).release();

    // A single wide scan whose JSON body far exceeds the 32 KiB streaming
    // threshold, to force the chunked path.
    rdf::Graph big;
    for (int i = 0; i < 4000; ++i) {
      big.Add({rdf::Term::Iri("http://big/subject-number-" +
                              std::to_string(i)),
               rdf::Term::Iri("http://big/p"),
               rdf::Term::Literal("object-value-" + std::to_string(i))});
    }
    auto bt = store::RdfStore::Load(std::move(big));
    ASSERT_TRUE(bt.ok()) << bt.status().ToString();
    big_store_ = std::move(*bt).release();
  }
  static void TearDownTestSuite() {
    delete micro_store_;
    micro_store_ = nullptr;
    delete big_store_;
    big_store_ = nullptr;
  }

  /// Starts a server over \p store and returns a connected client.
  std::unique_ptr<SparqlServer> StartServer(store::SparqlStore* store,
                                            ServerOptions opts = {}) {
    auto server = std::make_unique<SparqlServer>(store, std::move(opts));
    Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return server;
  }
  HttpClient ClientFor(const SparqlServer& server) {
    HttpClient c("127.0.0.1", server.port());
    c.set_timeout_ms(10'000);
    return c;
  }

  static store::RdfStore* micro_store_;
  static store::RdfStore* big_store_;
};

store::RdfStore* ServeTest::micro_store_ = nullptr;
store::RdfStore* ServeTest::big_store_ = nullptr;

TEST_F(ServeTest, GetQueryMatchesMaterializedJson) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);
  auto resp = client.Get("/sparql?query=" + UrlEncode(kStarQuery));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->headers["content-type"], "application/sparql-results+json");

  auto rs = micro_store_->Query(kStarQuery);
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(rs->size(), 0u);
  EXPECT_EQ(resp->body, SerializeResultSet(*rs, "json"));
}

TEST_F(ServeTest, FormatParamAndAcceptHeaderPickTsv) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);
  std::string target = "/sparql?query=" + UrlEncode(kSmallQuery);

  auto rs = micro_store_->Query(kSmallQuery);
  ASSERT_TRUE(rs.ok());
  std::string want = SerializeResultSet(*rs, "tsv");

  auto by_param = client.Get(target + "&format=tsv");
  ASSERT_TRUE(by_param.ok()) << by_param.status().ToString();
  EXPECT_EQ(by_param->status, 200);
  EXPECT_EQ(by_param->headers["content-type"], "text/tab-separated-values");
  EXPECT_EQ(by_param->body, want);

  auto by_accept = client.Roundtrip(
      "GET " + target + " HTTP/1.1\r\nHost: t\r\n"
      "Accept: text/tab-separated-values\r\n\r\n");
  ASSERT_TRUE(by_accept.ok()) << by_accept.status().ToString();
  EXPECT_EQ(by_accept->body, want);
}

TEST_F(ServeTest, PostFormAndRawSparqlBodies) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);
  auto rs = micro_store_->Query(kSmallQuery);
  ASSERT_TRUE(rs.ok());
  std::string want = SerializeResultSet(*rs, "json");

  auto form = client.Post("/sparql", "application/x-www-form-urlencoded",
                          "query=" + UrlEncode(kSmallQuery));
  ASSERT_TRUE(form.ok()) << form.status().ToString();
  EXPECT_EQ(form->status, 200);
  EXPECT_EQ(form->body, want);

  auto raw = client.Post("/sparql", "application/sparql-query", kSmallQuery);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw->status, 200);
  EXPECT_EQ(raw->body, want);

  auto bad = client.Post("/sparql", "text/weird", "body");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 415);
}

TEST_F(ServeTest, KeepAliveServesManyRequestsOnOneConnection) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);
  for (int i = 0; i < 5; ++i) {
    auto resp = client.Get("/sparql?query=" + UrlEncode(kSmallQuery));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->headers["connection"], "keep-alive");
  }
  EXPECT_EQ(
      server->metrics().connections_accepted.load(std::memory_order_relaxed),
      1u);
  EXPECT_EQ(server->metrics().sparql.requests.load(std::memory_order_relaxed),
            5u);
}

TEST_F(ServeTest, PipelinedRequestsAnswerInOrder) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);
  std::string one = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  // Both requests in one write; Roundtrip("") reads the second response
  // without sending anything further.
  auto first = client.Roundtrip(one + one);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, 200);
  auto second = client.Roundtrip("");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->body, "ok\n");
}

TEST_F(ServeTest, ErrorCodes) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);

  auto not_found = client.Get("/nope");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status, 404);

  auto bad_method = client.Roundtrip(
      "DELETE /sparql HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_TRUE(bad_method.ok());
  EXPECT_EQ(bad_method->status, 405);
  EXPECT_EQ(bad_method->headers["allow"], "GET, POST");

  auto missing = client.Get("/sparql");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);

  auto unparsable = client.Get("/sparql?query=" + UrlEncode("NOT SPARQL ("));
  ASSERT_TRUE(unparsable.ok());
  EXPECT_EQ(unparsable->status, 400);

  auto bad_format = client.Get(
      "/sparql?query=" + UrlEncode(kSmallQuery) + "&format=xml");
  ASSERT_TRUE(bad_format.ok());
  EXPECT_EQ(bad_format->status, 400);

  auto bad_timeout = client.Get(
      "/sparql?query=" + UrlEncode(kSmallQuery) + "&timeout=soon");
  ASSERT_TRUE(bad_timeout.ok());
  EXPECT_EQ(bad_timeout->status, 400);

  // 4xx answers keep the connection usable.
  auto after = client.Get("/healthz");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);
  EXPECT_EQ(
      server->metrics().connections_accepted.load(std::memory_order_relaxed),
      1u);
}

TEST_F(ServeTest, HostileNumbersGet400AndServingContinues) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);
  for (const char* tail :
       {" LIMIT 99999999999999999999", " OFFSET 99999999999999999999"}) {
    auto resp = client.Post("/sparql", "application/sparql-query",
                            std::string(kSmallQuery) + tail);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, 400) << tail;
  }
  // The same connection, and the endpoint, keep answering.
  auto next = client.Get("/sparql?query=" + UrlEncode(kSmallQuery));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->status, 200);
  auto fresh = ClientFor(*server).Get("/healthz");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->status, 200);
}

TEST_F(ServeTest, MalformedRequestGets400AndClose) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);
  auto resp = client.Roundtrip("THIS IS NOT HTTP\r\n\r\n");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(resp->headers["connection"], "close");

  auto chunked = client.Roundtrip(
      "POST /sparql HTTP/1.1\r\nHost: t\r\n"
      "Transfer-Encoding: chunked\r\n\r\n");
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(chunked->status, 501);
  EXPECT_GE(
      server->metrics().requests_bad.load(std::memory_order_relaxed), 2u);
}

TEST_F(ServeTest, LargeResultStreamsChunkedAndMatchesMaterialized) {
  auto server = StartServer(big_store_);
  auto client = ClientFor(*server);
  const std::string query =
      "SELECT ?s ?o WHERE { ?s <http://big/p> ?o }";
  auto resp = client.Get("/sparql?query=" + UrlEncode(query));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  // Big bodies must take the chunked streaming path.
  EXPECT_EQ(resp->headers.count("transfer-encoding"), 1u);
  EXPECT_EQ(resp->headers["transfer-encoding"], "chunked");

  auto rs = big_store_->Query(query);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->size(), 4000u);
  EXPECT_EQ(resp->body, SerializeResultSet(*rs, "json"));

  // Small results on the same server use Content-Length framing instead.
  auto small = client.Get(
      "/sparql?query=" +
      UrlEncode("SELECT ?o WHERE { <http://big/subject-number-1> "
                "<http://big/p> ?o }"));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->status, 200);
  EXPECT_EQ(small->headers.count("transfer-encoding"), 0u);
  EXPECT_EQ(small->headers.count("content-length"), 1u);
}

TEST_F(ServeTest, HealthzAndStats) {
  auto server = StartServer(micro_store_);
  auto client = ClientFor(*server);

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto warm = client.Get("/sparql?query=" + UrlEncode(kSmallQuery));
  ASSERT_TRUE(warm.ok());

  auto stats = client.Get("/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  EXPECT_EQ(stats->headers["content-type"], "application/json");
  for (const char* key :
       {"\"plan_cache\"", "\"page_cache\"", "\"persist\"", "\"server\"",
        "\"endpoints\"", "\"sparql\"", "\"p99_us\"", "\"uptime_s\"",
        "\"connections_shed\""}) {
    EXPECT_NE(stats->body.find(key), std::string::npos) << key;
  }
  // The earlier query is visible in the endpoint counters.
  EXPECT_NE(stats->body.find("\"requests\":1"), std::string::npos)
      << stats->body;
}

TEST_F(ServeTest, ExpiredDeadlineAnswers504) {
  SlowStore slow(micro_store_);
  auto server = StartServer(&slow);
  auto client = ClientFor(*server);
  auto resp = client.Get("/sparql?query=" + UrlEncode(kStarQuery) +
                         "&timeout=1");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 504);
  EXPECT_EQ(
      server->metrics().deadline_exceeded.load(std::memory_order_relaxed),
      1u);

  // Without the tight deadline the same query succeeds.
  auto fine = client.Get("/sparql?query=" + UrlEncode(kStarQuery));
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(fine->status, 200);
}

TEST_F(ServeTest, OverloadShedsWith503) {
  BlockingStore blocking(micro_store_);
  ServerOptions opts;
  opts.workers = 1;
  opts.max_pending = 1;
  auto server = StartServer(&blocking, opts);
  std::string target = "/sparql?query=" + UrlEncode(kSmallQuery);

  // First connection occupies the only worker (parked inside the store).
  HttpClient c1 = ClientFor(*server);
  std::thread t1([&] {
    auto resp = c1.Get(target);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, 200);
  });
  blocking.WaitEntered(1);

  // Second connection fills the single pending slot.
  HttpClient c2 = ClientFor(*server);
  ASSERT_TRUE(c2.Connect().ok());
  while (server->metrics().connections_accepted.load(
             std::memory_order_relaxed) < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Third connection finds the queue full and is shed at admission.
  HttpClient c3 = ClientFor(*server);
  auto shed = c3.Get(target);
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 503);
  EXPECT_EQ(shed->headers["connection"], "close");
  EXPECT_EQ(
      server->metrics().connections_shed.load(std::memory_order_relaxed),
      1u);

  // Releasing the latch drains the backlog: both queued clients succeed.
  blocking.Release();
  t1.join();
  auto queued = c2.Get(target);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_EQ(queued->status, 200);
}

TEST_F(ServeTest, GracefulStopUnderLoad) {
  auto server = StartServer(big_store_);
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      HttpClient c("127.0.0.1", server->port());
      c.set_timeout_ms(2'000);
      while (!done.load(std::memory_order_relaxed)) {
        auto resp = c.Get(
            "/sparql?query=" +
            UrlEncode("SELECT ?s ?o WHERE { ?s <http://big/p> ?o }"));
        // Until shutdown: success. During shutdown: 503 or a dropped
        // connection. All are acceptable; crashes/hangs are not.
        if (!resp.ok()) break;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->Stop();  // must join cleanly with queries in flight
  done.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  SUCCEED();
}

}  // namespace
}  // namespace rdfrel::serve
