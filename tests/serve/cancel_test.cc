/// Deadline and cancellation semantics of the query surface: expired
/// deadlines surface as kDeadlineExceeded, cancel tokens as kCancelled
/// (winning over a deadline), both take effect at executor batch
/// boundaries mid-stream, and neither participates in plan-cache identity.

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/graph.h"
#include "store/rdf_store.h"
#include "store/row_sink.h"

namespace rdfrel::store {
namespace {

/// ~5 executor batches of results for one scan query.
constexpr int kBigRows = 5000;
constexpr const char* kScan = "SELECT ?s ?o WHERE { ?s <http://c/p> ?o }";

std::unique_ptr<RdfStore> BigStore() {
  rdf::Graph g;
  for (int i = 0; i < kBigRows; ++i) {
    g.Add({rdf::Term::Iri("http://c/s" + std::to_string(i)),
           rdf::Term::Iri("http://c/p"),
           rdf::Term::Literal(std::string("v").append(std::to_string(i)))});
  }
  auto store = RdfStore::Load(std::move(g));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

/// Counts streamed rows; optionally cancels (via return value or an
/// external token) once the first block has arrived.
class CountingSink final : public RowSink {
 public:
  Status Begin(const std::vector<std::string>&) override {
    return Status::OK();
  }
  Status OnRows(std::vector<Binding>&& rows) override {
    rows_seen += rows.size();
    ++blocks_seen;
    if (flip_token != nullptr) {
      flip_token->store(true, std::memory_order_relaxed);
    }
    if (cancel_after_first_block) {
      return Status::Cancelled("sink has seen enough");
    }
    return Status::OK();
  }
  Status End() override {
    ended = true;
    return Status::OK();
  }

  size_t rows_seen = 0;
  size_t blocks_seen = 0;
  bool ended = false;
  bool cancel_after_first_block = false;
  std::atomic<bool>* flip_token = nullptr;
};

TEST(ServeCancelTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  auto store = BigStore();
  QueryOptions opts;
  opts.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  auto result = store->QueryWith(kScan, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(ServeCancelTest, PreSetCancelTokenSurfacesAsCancelled) {
  auto store = BigStore();
  std::atomic<bool> cancel{true};
  QueryOptions opts;
  opts.cancel = &cancel;
  auto result = store->QueryWith(kScan, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST(ServeCancelTest, CancelWinsOverExpiredDeadline) {
  auto store = BigStore();
  std::atomic<bool> cancel{true};
  QueryOptions opts;
  opts.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  opts.cancel = &cancel;
  auto result = store->QueryWith(kScan, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST(ServeCancelTest, SinkErrorStopsStreamAtBatchBoundary) {
  auto store = BigStore();
  CountingSink sink;
  sink.cancel_after_first_block = true;
  Status st = store->QueryWith(kScan, QueryOptions{}, sink);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  // Exactly the first block was delivered — a partial result, well short
  // of the full scan — and End() never ran.
  EXPECT_EQ(sink.blocks_seen, 1u);
  EXPECT_GT(sink.rows_seen, 0u);
  EXPECT_LT(sink.rows_seen, static_cast<size_t>(kBigRows));
  EXPECT_FALSE(sink.ended);
}

TEST(ServeCancelTest, TokenFlippedMidStreamCancelsNextBatch) {
  auto store = BigStore();
  std::atomic<bool> cancel{false};
  CountingSink sink;
  sink.flip_token = &cancel;  // flips during the first OnRows
  QueryOptions opts;
  opts.cancel = &cancel;
  Status st = store->QueryWith(kScan, opts, sink);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_GT(sink.rows_seen, 0u);
  EXPECT_LT(sink.rows_seen, static_cast<size_t>(kBigRows));
  EXPECT_FALSE(sink.ended);
}

TEST(ServeCancelTest, UncancelledStreamDeliversEverything) {
  auto store = BigStore();
  CountingSink sink;
  Status st = store->QueryWith(kScan, QueryOptions{}, sink);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sink.rows_seen, static_cast<size_t>(kBigRows));
  EXPECT_GE(sink.blocks_seen, 4u);  // multiple executor batches
  EXPECT_TRUE(sink.ended);
}

TEST(ServeCancelTest, ExecutionOnlyFieldsAreNotPlanIdentity) {
  QueryOptions a;
  QueryOptions b;
  std::atomic<bool> token{false};
  b.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  b.cancel = &token;
  EXPECT_TRUE(a == b) << "deadline/cancel must not affect plan identity";
  b.merging = !b.merging;
  EXPECT_FALSE(a == b);
}

TEST(ServeCancelTest, DifferentDeadlinesShareOneCachedPlan) {
  auto store = BigStore();
  QueryOptions first;
  first.WithTimeout(std::chrono::hours(1));
  ASSERT_TRUE(store->QueryWith(kScan, first).ok());
  uint64_t hits_before = store->plan_cache_stats().hits;

  QueryOptions second;
  second.WithTimeout(std::chrono::minutes(5));
  ASSERT_TRUE(store->QueryWith(kScan, second).ok());
  EXPECT_EQ(store->plan_cache_stats().hits, hits_before + 1)
      << "a different deadline must reuse the cached plan";
}

}  // namespace
}  // namespace rdfrel::store
