/// Differential tests of the streaming query surface:
///
///  1. On every workload's full query mix, the streamed result (collected
///     block-by-block through a RowSink) must equal the materialized
///     `QueryWith` result, and the streamed JSON/TSV serialization
///     (produced incrementally, one writer call per OnRows block) must be
///     byte-identical to serializing the materialized ResultSet in one go —
///     proving the wire bytes are independent of executor batch boundaries.
///  2. The micro mix additionally runs on all three backends, pinning the
///     streaming primitive across every QueryWith implementation.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/micro.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "serve/result_writer.h"
#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::serve {
namespace {

benchdata::Workload LoadWorkload(const std::string& name) {
  if (name == "micro") return benchdata::MakeMicro(400, 7);
  if (name == "lubm") return benchdata::MakeLubm(2, 7);
  if (name == "sp2bench") return benchdata::MakeSp2Bench(4, 7);
  if (name == "dbpedia") return benchdata::MakeDbpedia(400, 300, 7);
  return benchdata::MakePrbench(2, 7);
}

/// Collects rows like CollectingSink but additionally serializes each block
/// incrementally with a streaming writer — exactly what the HTTP sink does.
class SerializingSink final : public store::RowSink {
 public:
  explicit SerializingSink(const char* format)
      : writer_(MakeResultWriter(format)) {}

  Status Begin(const std::vector<std::string>& vars) override {
    result_.vars = vars;
    writer_->Begin(vars, &bytes_);
    return Status::OK();
  }
  Status OnRows(std::vector<store::Binding>&& rows) override {
    ++blocks_;
    writer_->AppendRows(rows, &bytes_);
    result_.rows.insert(result_.rows.end(),
                        std::make_move_iterator(rows.begin()),
                        std::make_move_iterator(rows.end()));
    return Status::OK();
  }
  Status End() override {
    writer_->End(&bytes_);
    return Status::OK();
  }

  const store::ResultSet& result() const { return result_; }
  const std::string& bytes() const { return bytes_; }
  size_t blocks() const { return blocks_; }

 private:
  std::unique_ptr<ResultWriter> writer_;
  store::ResultSet result_;
  std::string bytes_;
  size_t blocks_ = 0;
};

void ExpectStreamedMatchesMaterialized(store::SparqlStore* store,
                                       const benchdata::Workload& workload) {
  for (const auto& q : workload.queries) {
    auto materialized = store->QueryWith(q.sparql, {});
    ASSERT_TRUE(materialized.ok())
        << workload.name << "/" << q.id << ": "
        << materialized.status().ToString();

    for (const char* format : {"json", "tsv"}) {
      SerializingSink sink(format);
      Status st = store->QueryWith(q.sparql, {}, sink);
      ASSERT_TRUE(st.ok()) << workload.name << "/" << q.id << ": "
                           << st.ToString();
      EXPECT_EQ(sink.result().vars, materialized->vars)
          << workload.name << "/" << q.id;
      EXPECT_EQ(sink.result().rows, materialized->rows)
          << workload.name << "/" << q.id << " (" << format << ")";
      EXPECT_EQ(sink.bytes(), SerializeResultSet(*materialized, format))
          << workload.name << "/" << q.id << " (" << format << ")";
    }
  }
}

class ServeStreamDifferentialTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ServeStreamDifferentialTest, Db2RdfStreamEqualsMaterialized) {
  auto workload = LoadWorkload(GetParam());
  auto store = store::RdfStore::Load(std::move(workload.graph));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectStreamedMatchesMaterialized(store->get(), workload);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ServeStreamDifferentialTest,
                         ::testing::Values("micro", "lubm", "sp2bench",
                                           "dbpedia", "prbench"),
                         [](const auto& test_info) {
                           return std::string(test_info.param);
                         });

TEST(ServeStreamBackendsTest, MicroStreamsOnAllBackends) {
  auto workload = LoadWorkload("micro");
  {
    auto g = workload.graph;
    auto s = store::RdfStore::Load(std::move(g));
    ASSERT_TRUE(s.ok());
    ExpectStreamedMatchesMaterialized(s->get(), workload);
  }
  {
    auto g = workload.graph;
    auto s = store::TripleStoreBackend::Load(std::move(g));
    ASSERT_TRUE(s.ok());
    ExpectStreamedMatchesMaterialized(s->get(), workload);
  }
  {
    auto g = workload.graph;
    auto s = store::PredicateStoreBackend::Load(std::move(g));
    ASSERT_TRUE(s.ok());
    ExpectStreamedMatchesMaterialized(s->get(), workload);
  }
}

TEST(ServeStreamBackendsTest, MultiBatchResultsArriveInBlocks) {
  // > 4 executor batches worth of rows, to prove streaming really chunks.
  rdf::Graph g;
  for (int i = 0; i < 5000; ++i) {
    g.Add({rdf::Term::Iri("http://b/s" + std::to_string(i)),
           rdf::Term::Iri("http://b/p"),
           rdf::Term::Literal(std::string("v").append(std::to_string(i)))});
  }
  auto store = store::RdfStore::Load(std::move(g));
  ASSERT_TRUE(store.ok());
  SerializingSink sink("json");
  Status st = (*store)->QueryWith(
      "SELECT ?s ?o WHERE { ?s <http://b/p> ?o }", {}, sink);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sink.result().size(), 5000u);
  EXPECT_GE(sink.blocks(), 4u);  // vectorized batches are 1024 rows
}

}  // namespace
}  // namespace rdfrel::serve
