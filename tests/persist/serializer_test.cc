/// Serializer round-trips: the dictionary (empty store, non-ASCII literals,
/// >64KiB literals, id stability), statistics (with and without the
/// per-predicate fan-out tail), the triple-batch WAL payloads and the
/// catalog's index kind bytes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "opt/cost_model.h"
#include "persist/coding.h"
#include "persist/serializer.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "sparql/parser.h"
#include "sql/catalog.h"

namespace rdfrel::persist {
namespace {

using rdf::Term;

TEST(PersistTestSerializer, EmptyDictionary) {
  rdf::Dictionary dict;
  auto out = DecodeDictionary(EncodeDictionary(dict));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 0u);
}

TEST(PersistTestSerializer, DictionaryIdStability) {
  rdf::Dictionary dict;
  std::vector<Term> terms = {
      Term::Iri("http://x/a"),
      Term::Literal("plain"),
      Term::LangLiteral("bonjour", "fr"),
      Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
      Term::BlankNode("b0"),
  };
  std::vector<uint64_t> ids;
  for (const auto& t : terms) ids.push_back(dict.Encode(t));

  auto out = DecodeDictionary(EncodeDictionary(dict));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), dict.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    // Same id resolves to the same term, and re-encoding is a no-op.
    EXPECT_EQ(out->Decode(ids[i]).value(), terms[i]);
    EXPECT_EQ(out->Lookup(terms[i]), ids[i]);
  }
  // New encodes continue the dense sequence.
  EXPECT_EQ(out->Encode(Term::Iri("http://x/new")), dict.size() + 1);
}

TEST(PersistTestSerializer, NonAsciiLiterals) {
  rdf::Dictionary dict;
  std::vector<Term> terms = {
      Term::Literal("größe éèê"),
      Term::Literal("日本語のテキスト"),
      Term::LangLiteral("Ĝis la revido", "eo"),
      Term::Literal(std::string("embedded\0nul", 12)),
      Term::Literal("emoji \xF0\x9F\x92\xBE"),
  };
  for (const auto& t : terms) dict.Encode(t);
  auto out = DecodeDictionary(EncodeDictionary(dict));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const auto& t : terms) {
    EXPECT_EQ(out->Lookup(t), dict.Lookup(t)) << t.lexical();
  }
}

TEST(PersistTestSerializer, HugeLiteral) {
  rdf::Dictionary dict;
  std::string big(100 * 1024, 'x');  // > 64 KiB
  for (size_t i = 0; i < big.size(); i += 97) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  uint64_t id = dict.Encode(Term::Literal(big));
  auto out = DecodeDictionary(EncodeDictionary(dict));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto t = out->Decode(id);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->lexical(), big);
}

TEST(PersistTestSerializer, TruncatedDictionaryIsDataLoss) {
  rdf::Dictionary dict;
  dict.Encode(Term::Iri("http://x/a"));
  dict.Encode(Term::Literal("b"));
  std::string bytes = EncodeDictionary(dict);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto out = DecodeDictionary(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(out.ok()) << "truncation to " << len << " undetected";
  }
}

TEST(PersistTestSerializer, TripleBatchRoundTrip) {
  std::vector<rdf::Triple> batch = {
      {Term::Iri("http://x/s"), Term::Iri("http://x/p"),
       Term::Literal("o")},
      {Term::BlankNode("b1"), Term::Iri("http://x/q"),
       Term::LangLiteral("v", "en")},
  };
  auto out = DecodeTripleBatch(EncodeTripleBatch(batch));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*out)[i].subject, batch[i].subject);
    EXPECT_EQ((*out)[i].predicate, batch[i].predicate);
    EXPECT_EQ((*out)[i].object, batch[i].object);
  }
  EXPECT_TRUE(DecodeTripleBatch(EncodeTripleBatch(batch) + "junk")
                  .status()
                  .IsDataLoss());
}

TEST(PersistTestSerializer, StatisticsRoundTrip) {
  rdf::Graph g;
  g.Add({Term::Iri("http://x/a"), Term::Iri("http://x/p"),
         Term::Literal("1")});
  g.Add({Term::Iri("http://x/a"), Term::Iri("http://x/p"),
         Term::Literal("2")});
  g.Add({Term::Iri("http://x/b"), Term::Iri("http://x/q"),
         Term::Literal("1")});
  opt::Statistics stats = opt::Statistics::FromGraph(g, 10);
  auto out = DecodeStatistics(EncodeStatistics(stats));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->total_triples(), stats.total_triples());
  EXPECT_EQ(out->distinct_subjects(), stats.distinct_subjects());
  EXPECT_EQ(out->distinct_objects(), stats.distinct_objects());
  EXPECT_EQ(out->avg_triples_per_subject(), stats.avg_triples_per_subject());
  EXPECT_EQ(out->predicate_count_map(), stats.predicate_count_map());
  EXPECT_EQ(out->top_subject_counts(), stats.top_subject_counts());
  EXPECT_EQ(out->top_object_counts(), stats.top_object_counts());
  EXPECT_EQ(out->predicate_distinct_subject_map(),
            stats.predicate_distinct_subject_map());
  EXPECT_EQ(out->predicate_distinct_object_map(),
            stats.predicate_distinct_object_map());
}

// Snapshots written before per-predicate fan-outs end after the predicate
// counts. They still decode (with empty distinct maps), and the cost model
// then prices variable entries at the graph-wide averages.
TEST(PersistTestSerializer, StatisticsWithoutFanoutTailDecode) {
  rdf::Graph g;
  for (int i = 0; i < 6; ++i) {
    g.Add({Term::Iri("http://x/s" + std::to_string(i)),
           Term::Iri("http://x/p"), Term::Iri("http://x/o")});
  }
  g.Add({Term::Iri("http://x/s0"), Term::Iri("http://x/q"),
         Term::Iri("http://x/o1")});
  opt::Statistics stats = opt::Statistics::FromGraph(g, 10);
  const std::string full = EncodeStatistics(stats);
  const size_t tail = 8 + 16 * stats.predicate_distinct_subject_map().size() +
                      8 + 16 * stats.predicate_distinct_object_map().size();
  ASSERT_GT(full.size(), tail);
  const std::string legacy = full.substr(0, full.size() - tail);

  auto out = DecodeStatistics(legacy);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->predicate_count_map(), stats.predicate_count_map());
  EXPECT_TRUE(out->predicate_distinct_subject_map().empty());
  EXPECT_TRUE(out->predicate_distinct_object_map().empty());

  auto q = sparql::ParseQuery("SELECT * WHERE { ?s <http://x/p> ?o }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<const sparql::TriplePattern*> ts;
  q->where->CollectTriples(&ts);
  const opt::CostModel legacy_cost(&*out, &g.dictionary());
  EXPECT_DOUBLE_EQ(legacy_cost.Tmc(*ts[0], opt::AccessMethod::kAcs),
                   stats.avg_triples_per_subject());
  EXPECT_DOUBLE_EQ(legacy_cost.Tmc(*ts[0], opt::AccessMethod::kAco),
                   stats.avg_triples_per_object());
  // The current payload prices the same triple at p's own fan-outs.
  const opt::CostModel cost(&stats, &g.dictionary());
  EXPECT_DOUBLE_EQ(cost.Tmc(*ts[0], opt::AccessMethod::kAcs), 1.0);
  EXPECT_DOUBLE_EQ(cost.Tmc(*ts[0], opt::AccessMethod::kAco), 6.0);

  // Half a tail (the subject map alone) is truncation, not a legacy payload.
  const size_t object_map =
      8 + 16 * stats.predicate_distinct_object_map().size();
  EXPECT_TRUE(DecodeStatistics(full.substr(0, full.size() - object_map))
                  .status()
                  .IsDataLoss());
}

TEST(PersistTestSerializer, CatalogKindBytesDecodeToOneIndex) {
  // Each catalog index carries a kind byte: 0 for the ordered tree that once
  // backed the entry columns, 1 for a hash index. Both decode to the one
  // equality index; any other byte is DataLoss.
  sql::Catalog catalog;
  auto table = catalog.CreateTable(
      "t", sql::Schema({{"k", sql::ValueType::kInt64},
                        {"v", sql::ValueType::kDouble}}));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({sql::Value::Int(i % 3),
                              sql::Value::Real(i * 1.5)})
                    .ok());
  }
  ASSERT_TRUE((*table)->CreateIndex("t_k", "k").ok());
  const std::string payload = EncodeCatalog(catalog);
  std::string index_entry;
  PutString(&index_entry, "t_k");
  PutString(&index_entry, "k");
  const size_t at = payload.find(index_entry);
  ASSERT_NE(at, std::string::npos);
  const size_t kind_at = at + index_entry.size();
  EXPECT_EQ(payload[kind_at], 1) << "an index is written as a hash index";

  for (int kind : {0, 1}) {
    std::string bytes = payload;
    bytes[kind_at] = static_cast<char>(kind);
    sql::Catalog restored;
    Status st = DecodeCatalogInto(bytes, &restored);
    ASSERT_TRUE(st.ok()) << "kind " << kind << ": " << st.ToString();
    auto t = restored.GetTable("t");
    ASSERT_TRUE(t.ok());
    const sql::IndexInfo* idx = (*t)->FindIndexOn("k");
    ASSERT_NE(idx, nullptr) << "kind " << kind;
    EXPECT_EQ(idx->name, "t_k");
    EXPECT_EQ(idx->Lookup(sql::Value::Int(1)).size(), 2u);
    EXPECT_TRUE(idx->Lookup(sql::Value::Int(3)).empty());
  }
  std::string bytes = payload;
  bytes[kind_at] = 2;
  sql::Catalog restored;
  EXPECT_TRUE(DecodeCatalogInto(bytes, &restored).IsDataLoss());
}

}  // namespace
}  // namespace rdfrel::persist
