#include "schema/loader.h"

#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/prbench.h"
#include "schema/coloring_mapping.h"
#include "schema/hash_mapping.h"
#include "store/rdf_store.h"
#include "util/hash.h"

namespace rdfrel::schema {
namespace {

using rdf::Term;
using sql::Value;

rdf::Graph PaperFigure1Graph() {
  rdf::Graph g;
  auto iri = [](const char* s) { return Term::Iri(s); };
  auto lit = [](const char* s) { return Term::Literal(s); };
  g.Add({iri("Flint"), iri("born"), lit("1850")});
  g.Add({iri("Flint"), iri("died"), lit("1934")});
  g.Add({iri("Flint"), iri("founder"), iri("IBM")});
  g.Add({iri("Page"), iri("born"), lit("1973")});
  g.Add({iri("Page"), iri("founder"), iri("Google")});
  g.Add({iri("Page"), iri("board"), iri("Google")});
  g.Add({iri("Page"), iri("home"), lit("Palo Alto")});
  g.Add({iri("Google"), iri("industry"), lit("Software")});
  g.Add({iri("Google"), iri("industry"), lit("Internet")});
  g.Add({iri("Google"), iri("employees"), lit("54,604")});
  g.Add({iri("IBM"), iri("industry"), lit("Software")});
  g.Add({iri("IBM"), iri("industry"), lit("Hardware")});
  g.Add({iri("IBM"), iri("industry"), lit("Services")});
  g.Add({iri("IBM"), iri("employees"), lit("433,362")});
  return g;
}

struct StoreFixture {
  sql::Database db;
  std::unique_ptr<Db2RdfSchema> schema;
  std::unique_ptr<Loader> loader;

  explicit StoreFixture(uint32_t k = 16, uint32_t fns = 2) {
    Db2RdfConfig cfg;
    cfg.k_direct = k;
    cfg.k_reverse = k;
    auto s = Db2RdfSchema::Create(&db, cfg);
    EXPECT_TRUE(s.ok());
    schema = std::move(*s);
    loader = std::make_unique<Loader>(
        schema.get(), std::make_shared<HashMapping>(k, fns, 1),
        std::make_shared<HashMapping>(k, fns, 2));
  }
};

/// Finds the value stored for (entity, pred) in a primary table; returns
/// std::nullopt when absent.
std::optional<int64_t> FindVal(sql::Table* table, uint32_t k, int64_t entity,
                               int64_t pred) {
  const sql::IndexInfo* idx = table->FindIndexOn("entry");
  for (sql::RowId rid : idx->Lookup(Value::Int(entity))) {
    auto row = table->Get(rid);
    if (!row.ok()) return std::nullopt;
    for (uint32_t c = 0; c < k; ++c) {
      const Value& p = (*row)[Db2RdfSchema::PredSlot(c)];
      if (!p.is_null() && p.AsInt() == pred) {
        return (*row)[Db2RdfSchema::ValSlot(c)].AsInt();
      }
    }
  }
  return std::nullopt;
}

/// All elements of a secondary-table list.
std::multiset<int64_t> ListElements(sql::Table* secondary, int64_t lid) {
  std::multiset<int64_t> out;
  const sql::IndexInfo* idx = secondary->FindIndexOn("l_id");
  for (sql::RowId rid : idx->Lookup(Value::Int(lid))) {
    auto row = secondary->Get(rid);
    if (row.ok()) out.insert((*row)[1].AsInt());
  }
  return out;
}

TEST(LoaderTest, BulkLoadShredsFigure1) {
  StoreFixture f;
  rdf::Graph g = PaperFigure1Graph();
  auto stats = f.loader->BulkLoad(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triples, 14u);
  // 4 subjects, no spills expected with k=16 and 2 hash functions.
  EXPECT_EQ(stats->dph_rows, 4u + stats->dph_spill_rows);

  auto& dict = g.dictionary();
  int64_t flint = static_cast<int64_t>(dict.Lookup(Term::Iri("Flint")));
  int64_t born = static_cast<int64_t>(dict.Lookup(Term::Iri("born")));
  int64_t y1850 = static_cast<int64_t>(dict.Lookup(Term::Literal("1850")));
  auto val = FindVal(f.schema->dph(), 16, flint, born);
  ASSERT_TRUE(val.has_value());
  EXPECT_EQ(*val, y1850);
}

TEST(LoaderTest, MultiValuedPredicateGoesToSecondary) {
  StoreFixture f;
  rdf::Graph g = PaperFigure1Graph();
  ASSERT_TRUE(f.loader->BulkLoad(g).ok());
  auto& dict = g.dictionary();
  int64_t ibm = static_cast<int64_t>(dict.Lookup(Term::Iri("IBM")));
  int64_t industry = static_cast<int64_t>(dict.Lookup(Term::Iri("industry")));
  auto val = FindVal(f.schema->dph(), 16, ibm, industry);
  ASSERT_TRUE(val.has_value());
  ASSERT_TRUE(Db2RdfSchema::IsLid(*val)) << *val;
  auto elems = ListElements(f.schema->ds(), *val);
  std::multiset<int64_t> expect = {
      static_cast<int64_t>(dict.Lookup(Term::Literal("Software"))),
      static_cast<int64_t>(dict.Lookup(Term::Literal("Hardware"))),
      static_cast<int64_t>(dict.Lookup(Term::Literal("Services")))};
  EXPECT_EQ(elems, expect);
  EXPECT_TRUE(f.schema->multivalued_direct().count(static_cast<uint64_t>(industry)) > 0);
}

TEST(LoaderTest, ReverseSideMirrors) {
  StoreFixture f;
  rdf::Graph g = PaperFigure1Graph();
  ASSERT_TRUE(f.loader->BulkLoad(g).ok());
  auto& dict = g.dictionary();
  // Reverse: who founded Google? RPH entry Google, pred founder -> Page.
  int64_t google = static_cast<int64_t>(dict.Lookup(Term::Iri("Google")));
  int64_t founder = static_cast<int64_t>(dict.Lookup(Term::Iri("founder")));
  auto val = FindVal(f.schema->rph(), 16, google, founder);
  ASSERT_TRUE(val.has_value());
  EXPECT_EQ(*val, static_cast<int64_t>(dict.Lookup(Term::Iri("Page"))));
  // Software's industry (reverse) is multi-valued: IBM and Google.
  int64_t software = static_cast<int64_t>(dict.Lookup(Term::Literal("Software")));
  int64_t industry = static_cast<int64_t>(dict.Lookup(Term::Iri("industry")));
  auto rval = FindVal(f.schema->rph(), 16, software, industry);
  ASSERT_TRUE(rval.has_value());
  ASSERT_TRUE(Db2RdfSchema::IsLid(*rval));
  auto elems = ListElements(f.schema->rs(), *rval);
  EXPECT_EQ(elems.size(), 2u);
}

TEST(LoaderTest, TinyKForcesSpills) {
  // k=2 with 1 hash function: entities with >2 predicates (or collisions)
  // must spill.
  StoreFixture f(/*k=*/2, /*fns=*/1);
  rdf::Graph g = PaperFigure1Graph();
  auto stats = f.loader->BulkLoad(g);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->dph_spill_rows, 0u);
  EXPECT_FALSE(f.schema->spilled_direct().empty());
  // Data must still be complete: Page's 4 predicates all findable.
  auto& dict = g.dictionary();
  int64_t page = static_cast<int64_t>(dict.Lookup(Term::Iri("Page")));
  for (const char* p : {"born", "founder", "board", "home"}) {
    auto val = FindVal(f.schema->dph(), 2, page,
                       static_cast<int64_t>(dict.Lookup(Term::Iri(p))));
    EXPECT_TRUE(val.has_value()) << p;
  }
  // Spill flag set on all of Page's rows.
  const sql::IndexInfo* idx = f.schema->dph()->FindIndexOn("entry");
  auto rids = idx->Lookup(Value::Int(page));
  ASSERT_GT(rids.size(), 1u);
  for (auto rid : rids) {
    auto row = f.schema->dph()->Get(rid);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[Db2RdfSchema::kSpillSlot].AsInt(), 1);
  }
}

TEST(LoaderTest, IncrementalMatchesBulk) {
  StoreFixture bulk, incr;
  rdf::Graph g = PaperFigure1Graph();
  ASSERT_TRUE(bulk.loader->BulkLoad(g).ok());
  for (const auto& t : g.triples()) {
    ASSERT_TRUE(incr.loader->InsertTriple(g.dictionary(), t).ok());
  }
  // Same values retrievable from both stores for every triple.
  for (const auto& t : g.triples()) {
    for (auto* f : {&bulk, &incr}) {
      auto val = FindVal(f->schema->dph(), 16,
                         static_cast<int64_t>(t.subject),
                         static_cast<int64_t>(t.predicate));
      ASSERT_TRUE(val.has_value());
      if (Db2RdfSchema::IsLid(*val)) {
        auto elems = ListElements(f->schema->ds(), *val);
        EXPECT_TRUE(elems.count(static_cast<int64_t>(t.object)) > 0);
      } else {
        EXPECT_EQ(*val, static_cast<int64_t>(t.object));
      }
    }
  }
  EXPECT_EQ(bulk.schema->dph()->row_count(),
            incr.schema->dph()->row_count());
}

TEST(LoaderTest, IncrementalSingleToMultiConversion) {
  StoreFixture f;
  rdf::Graph g;
  g.Add({Term::Iri("s"), Term::Iri("p"), Term::Iri("o1")});
  ASSERT_TRUE(f.loader->BulkLoad(g).ok());
  auto& dict = g.dictionary();
  int64_t s = static_cast<int64_t>(dict.Lookup(Term::Iri("s")));
  int64_t p = static_cast<int64_t>(dict.Lookup(Term::Iri("p")));
  int64_t o1 = static_cast<int64_t>(dict.Lookup(Term::Iri("o1")));
  // Initially single-valued.
  auto val = FindVal(f.schema->dph(), 16, s, p);
  ASSERT_TRUE(val.has_value());
  EXPECT_EQ(*val, o1);

  // Add a second object for the same (s, p).
  uint64_t o2 = g.dictionary().Encode(Term::Iri("o2"));
  ASSERT_TRUE(f.loader
                  ->InsertTriple(g.dictionary(),
                                 {static_cast<uint64_t>(s),
                                  static_cast<uint64_t>(p), o2})
                  .ok());
  val = FindVal(f.schema->dph(), 16, s, p);
  ASSERT_TRUE(val.has_value());
  ASSERT_TRUE(Db2RdfSchema::IsLid(*val));
  auto elems = ListElements(f.schema->ds(), *val);
  EXPECT_EQ(elems.size(), 2u);
  EXPECT_TRUE(f.schema->multivalued_direct().count(static_cast<uint64_t>(p)) > 0);

  // Third object appends to the same list.
  uint64_t o3 = g.dictionary().Encode(Term::Iri("o3"));
  ASSERT_TRUE(f.loader
                  ->InsertTriple(g.dictionary(),
                                 {static_cast<uint64_t>(s),
                                  static_cast<uint64_t>(p), o3})
                  .ok());
  elems = ListElements(f.schema->ds(), *val);
  EXPECT_EQ(elems.size(), 3u);
}

TEST(LoaderTest, DuplicateTripleIsNoOp) {
  StoreFixture f;
  rdf::Graph g;
  g.Add({Term::Iri("s"), Term::Iri("p"), Term::Iri("o")});
  ASSERT_TRUE(f.loader->BulkLoad(g).ok());
  uint64_t rows_before = f.schema->dph()->row_count();
  uint64_t ds_before = f.schema->ds()->row_count();
  ASSERT_TRUE(f.loader->InsertTriple(g.dictionary(), g.triples()[0]).ok());
  EXPECT_EQ(f.schema->dph()->row_count(), rows_before);
  EXPECT_EQ(f.schema->ds()->row_count(), ds_before);
}

TEST(LoaderTest, ColoringMappingAvoidsSpillsWhereHashingSpills) {
  rdf::Graph g = PaperFigure1Graph();
  InterferenceGraph ig = InterferenceGraph::FromGraphBySubject(g);
  ColoringResult r = ColorInterferenceGraph(ig, 0);
  InterferenceGraph rig = InterferenceGraph::FromGraphByObject(g);
  ColoringResult rr = ColorInterferenceGraph(rig, 0);

  sql::Database db;
  Db2RdfConfig cfg;
  cfg.k_direct = r.colors_used;
  cfg.k_reverse = rr.colors_used;
  auto schema = Db2RdfSchema::Create(&db, cfg);
  ASSERT_TRUE(schema.ok());
  Loader loader(schema->get(),
                std::make_shared<ColoringMapping>(r, r.colors_used),
                std::make_shared<ColoringMapping>(rr, rr.colors_used));
  auto stats = loader.BulkLoad(g);
  ASSERT_TRUE(stats.ok());
  // A valid coloring guarantees zero spills within the colored set.
  EXPECT_EQ(stats->dph_spill_rows, 0u);
  EXPECT_EQ(stats->rph_spill_rows, 0u);
  // And the column budget is far below 13 (one per predicate).
  EXPECT_LT(r.colors_used, 13u);
}

/// FNV-1a over every live row of \p table in slot order: the slot, then
/// each cell's kind byte and 8 payload bytes.
uint64_t TableDigest(const sql::Table& table) {
  std::string bytes;
  auto put = [&bytes](uint64_t x) {
    bytes.append(reinterpret_cast<const char*>(&x), sizeof(x));
  };
  Status st = table.Scan([&](sql::RowId rid, const sql::Row& row) {
    put(rid);
    for (const Value& v : row) {
      if (v.is_null()) {
        bytes.push_back('N');
      } else if (v.is_int()) {
        bytes.push_back('I');
        put(static_cast<uint64_t>(v.AsInt()));
      } else {
        bytes.push_back('D');
        const double d = v.AsDouble();
        uint64_t b;
        std::memcpy(&b, &d, sizeof(b));
        put(b);
      }
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Fnv1a64(bytes);
}

// The bulk loader's output, slot by slot, is pinned to digests of the
// tables an earlier loader (per-entity hash maps, a dictionary decode per
// entity and predicate) wrote for the same graphs.
TEST(LoaderTest, BulkLoadLayoutUnchanged) {
  struct Expected {
    const char* table;
    uint64_t rows;
    uint64_t digest;
  };
  struct Case {
    const char* name;
    benchdata::Workload (*make)();
    std::vector<Expected> tables;
  };
  const Case cases[] = {
      {"LUBM(15, seed 4)",
       [] { return benchdata::MakeLubm(15, 4); },
       {{"dph", 6090, 0x223659235d77edbbull},
        {"rph", 6243, 0x331892aaeb5e8ae4ull},
        {"ds", 7465, 0xb2015d77592a17a8ull},
        {"rs", 28497, 0x8b2490d7c5f554f4ull},
        {"lex", 0, 0xcbf29ce484222325ull}}},
      {"PRBench(20, seed 4)",
       [] { return benchdata::MakePrbench(20, 4); },
       {{"dph", 3320, 0x209967b765475efbull},
        {"rph", 1670, 0x0bfdb1b9d7b264c5ull},
        {"ds", 970, 0x1a5a22f6cdbbf652ull},
        {"rs", 20983, 0x82c65c10d2f29cc8ull},
        {"lex", 41, 0x5163a2fa19a4061bull}}},
      // Repeats some triples: each value list is deduplicated.
      {"DBpedia(2000, 300, seed 102)",
       [] { return benchdata::MakeDbpedia(2000, 300, 102); },
       {{"dph", 2000, 0x99d41593f526e41bull},
        {"rph", 3732, 0xa71aef9c627df464ull},
        {"ds", 10256, 0x424e23dd2ed85149ull},
        {"rs", 12884, 0x25c4661a16ce8142ull},
        {"lex", 0, 0xcbf29ce484222325ull}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto store = store::RdfStore::Load(c.make().graph);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const Expected& e : c.tables) {
      auto table = (*store)->database().catalog().GetTable(e.table);
      ASSERT_TRUE(table.ok()) << e.table;
      EXPECT_EQ((*table)->row_count(), e.rows) << e.table;
      EXPECT_EQ(TableDigest(**table), e.digest)
          << e.table << " digest 0x" << std::hex << TableDigest(**table);
    }
  }
}

TEST(Db2RdfSchemaTest, CreateRejectsZeroK) {
  sql::Database db;
  Db2RdfConfig cfg;
  cfg.k_direct = 0;
  EXPECT_TRUE(Db2RdfSchema::Create(&db, cfg).status().IsInvalidArgument());
}

TEST(Db2RdfSchemaTest, PrefixesAllowMultipleStores) {
  sql::Database db;
  Db2RdfConfig a, b;
  a.prefix = "one_";
  b.prefix = "two_";
  EXPECT_TRUE(Db2RdfSchema::Create(&db, a).ok());
  EXPECT_TRUE(Db2RdfSchema::Create(&db, b).ok());
  EXPECT_TRUE(db.catalog().HasTable("one_dph"));
  EXPECT_TRUE(db.catalog().HasTable("two_rph"));
}

TEST(Db2RdfSchemaTest, LidsAreNegativeAndUnique) {
  sql::Database db;
  auto schema = Db2RdfSchema::Create(&db, Db2RdfConfig{});
  ASSERT_TRUE(schema.ok());
  int64_t a = (*schema)->AllocateLid();
  int64_t b = (*schema)->AllocateLid();
  EXPECT_LT(a, 0);
  EXPECT_LT(b, 0);
  EXPECT_NE(a, b);
  EXPECT_TRUE(Db2RdfSchema::IsLid(a));
  EXPECT_FALSE(Db2RdfSchema::IsLid(1));
  EXPECT_FALSE(Db2RdfSchema::IsLid(0));
}

}  // namespace
}  // namespace rdfrel::schema
