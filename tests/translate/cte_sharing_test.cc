/// CTE sharing in the SPARQL-to-SQL translation: PatternSqlBuilderBase
/// emits each distinct CTE body once, so a sub-pattern that several UNION
/// branches repeat is materialized once. Three checks:
///  - no workload query's SQL carries two equal CTE bodies, on any backend
///    under greedy and parse-order flow;
///  - DB2RDF's CTE count per workload query is pinned, on the datasets
///    perfbench and bench_summary run (LUBM 15, SP2Bench 40, DBpedia
///    12000/1500, PRBench 20; generator seed 4);
///  - hand-built queries where sharing happens agree with the reference
///    on every backend and flow mode.

#include <algorithm>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "benchdata/micro.h"
#include "benchdata/prbench.h"
#include "benchdata/sp2bench.h"
#include "reference/reference.h"
#include "sparql/parser.h"
#include "store/predicate_store_backend.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"

namespace rdfrel::translate {
namespace {

using rdf::Term;

/// (name, body) of CTEs, in order.
using Ctes = std::vector<std::pair<std::string, std::string>>;

/// Every CTE of generated SQL. The builder writes
/// `WITH q1 AS (<body>),\nq2 AS (<body>)\nSELECT ...`, one CTE per line.
Ctes CteBodies(const std::string& sql) {
  Ctes out;
  if (sql.rfind("WITH ", 0) != 0) return out;
  size_t begin = 5;
  for (size_t end; (end = sql.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    std::string line = sql.substr(begin, end - begin);
    if (!line.empty() && line.back() == ',') line.pop_back();
    const size_t open = line.find(" AS (");
    if (open == std::string::npos || line.back() != ')') break;
    out.emplace_back(line.substr(0, open),
                     line.substr(open + 5, line.size() - open - 6));
  }
  return out;
}

/// The most bodies that read any one CTE. Without sharing, a UNION at
/// the root of a pattern gives every CTE a single reader.
size_t MaxReaders(const Ctes& ctes) {
  static const std::regex kName(R"(\bq[0-9]+\b)");
  std::map<std::string, size_t> readers;
  for (const auto& [name, body] : ctes) {
    std::set<std::string> read;
    for (std::sregex_iterator it(body.begin(), body.end(), kName), end;
         it != end; ++it) {
      read.insert(it->str());
    }
    for (const auto& r : read) ++readers[r];
  }
  size_t most = 0;
  for (const auto& [name, n] : readers) most = std::max(most, n);
  return most;
}

using Backends =
    std::vector<std::pair<std::string, std::unique_ptr<store::SparqlStore>>>;

Backends LoadAll(const rdf::Graph& graph) {
  Backends out;
  auto db2rdf = store::RdfStore::Load(graph);
  auto triple = store::TripleStoreBackend::Load(graph);
  auto predicate = store::PredicateStoreBackend::Load(graph);
  EXPECT_TRUE(db2rdf.ok() && triple.ok() && predicate.ok());
  if (db2rdf.ok()) out.emplace_back("db2rdf", std::move(*db2rdf));
  if (triple.ok()) out.emplace_back("triple", std::move(*triple));
  if (predicate.ok()) out.emplace_back("predicate", std::move(*predicate));
  return out;
}

constexpr store::FlowMode kModes[] = {store::FlowMode::kGreedy,
                                      store::FlowMode::kParseOrder};

const char* ModeName(store::FlowMode mode) {
  return mode == store::FlowMode::kGreedy ? "greedy" : "parse-order";
}

benchdata::Workload MakeAtBenchScale(const std::string& name) {
  if (name == "micro") return benchdata::MakeMicro(400, 4);
  if (name == "lubm") return benchdata::MakeLubm(15, 4);
  if (name == "sp2bench") return benchdata::MakeSp2Bench(40, 4);
  if (name == "dbpedia") return benchdata::MakeDbpedia(12000, 1500, 4);
  return benchdata::MakePrbench(20, 4);
}

/// DB2RDF's CTE count per query under greedy flow. UNION folding (DESIGN.md
/// §1 item 4) turns each UNION whose branches are one plan up to constants
/// into one plan: PQ26-PQ28's 24/60/96 star branches (31/67/99 CTEs with
/// CTE sharing alone, 49/121/289 without), PQ20/PQ21's type or status
/// alternatives (3/7), SQ5's and DQ20's type alternatives (7/4) and LQ4-LQ10's
/// inference-expanded type lookups (5, 4, 3, 5, 5, 7, 4 before).
const std::map<std::string, std::map<std::string, size_t>>& PinnedCounts() {
  static const auto* counts =
      new std::map<std::string, std::map<std::string, size_t>>{
          {"micro",
           {{"Q1", 1}, {"Q2", 1}, {"Q3", 1}, {"Q4", 1}, {"Q5", 1},
            {"Q6", 1}, {"Q7", 1}, {"Q8", 1}, {"Q9", 1}, {"Q10", 1}}},
          {"lubm",
           {{"LQ1", 2}, {"LQ2", 5}, {"LQ3", 2}, {"LQ4", 2}, {"LQ5", 2},
            {"LQ6", 1}, {"LQ7", 3}, {"LQ8", 3}, {"LQ9", 3}, {"LQ10", 2},
            {"LQ13", 1}, {"LQ14", 1}}},
          {"sp2bench",
           {{"SQ1", 2}, {"SQ2", 2}, {"SQ3", 2}, {"SQ4", 5}, {"SQ5", 3},
            {"SQ6", 3}, {"SQ7", 2}, {"SQ8", 4}, {"SQ9", 2}, {"SQ10", 1},
            {"SQ11", 2}, {"SQ12", 2}, {"SQ13", 3}, {"SQ14", 1}, {"SQ15", 5},
            {"SQ16", 2}, {"SQ17", 4}}},
          {"dbpedia",
           {{"DQ1", 1}, {"DQ2", 1}, {"DQ3", 1}, {"DQ4", 2}, {"DQ5", 1},
            {"DQ6", 2}, {"DQ7", 3}, {"DQ8", 4}, {"DQ9", 2}, {"DQ10", 2},
            {"DQ11", 1}, {"DQ12", 3}, {"DQ13", 1}, {"DQ14", 2}, {"DQ15", 1},
            {"DQ16", 1}, {"DQ17", 2}, {"DQ18", 2}, {"DQ19", 4},
            {"DQ20", 1}}},
          {"prbench",
           {{"PQ1", 1},  {"PQ2", 1},  {"PQ3", 2},   {"PQ4", 3},  {"PQ5", 2},
            {"PQ6", 1},  {"PQ7", 2},  {"PQ8", 2},   {"PQ9", 2},  {"PQ10", 5},
            {"PQ11", 4}, {"PQ12", 2}, {"PQ13", 5},  {"PQ14", 2}, {"PQ15", 4},
            {"PQ16", 3}, {"PQ17", 2}, {"PQ18", 1},  {"PQ19", 1}, {"PQ20", 1},
            {"PQ21", 2}, {"PQ22", 5}, {"PQ23", 2},  {"PQ24", 3}, {"PQ25", 2},
            {"PQ26", 2}, {"PQ27", 2}, {"PQ28", 3}, {"PQ29", 6}}},
      };
  return *counts;
}

class WorkloadCteTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadCteTest, NoTwoCteBodiesAreEqual) {
  const benchdata::Workload w = MakeAtBenchScale(GetParam());
  Backends backends = LoadAll(w.graph);
  ASSERT_EQ(backends.size(), 3u);
  for (const auto& nq : w.queries) {
    for (const auto& [name, backend] : backends) {
      for (store::FlowMode mode : kModes) {
        store::QueryOptions opts;
        opts.flow = mode;
        auto sql = backend->TranslateWith(nq.sparql, opts);
        // The predicate store declines a variable predicate over more
        // tables than its UNION limit (DBpedia's 1500 predicates).
        if (!sql.ok() && sql.status().IsUnsupported()) continue;
        ASSERT_TRUE(sql.ok()) << name << "/" << nq.id << ": "
                              << sql.status().ToString();
        std::map<std::string, std::string> seen;  // body -> name
        for (const auto& [cte, body] : CteBodies(*sql)) {
          auto [it, fresh] = seen.emplace(body, cte);
          EXPECT_TRUE(fresh) << name << "/" << nq.id << " ("
                             << ModeName(mode) << "): " << cte << " repeats "
                             << it->second;
        }
      }
    }
  }
}

TEST_P(WorkloadCteTest, Db2RdfCteCountsArePinned) {
  const auto pinned = PinnedCounts().find(GetParam());
  ASSERT_NE(pinned, PinnedCounts().end());
  const benchdata::Workload w = MakeAtBenchScale(GetParam());
  auto store = store::RdfStore::Load(w.graph);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(w.queries.size(), pinned->second.size());
  for (const auto& nq : w.queries) {
    auto sql = (*store)->TranslateToSql(nq.sparql);
    ASSERT_TRUE(sql.ok()) << nq.id << ": " << sql.status().ToString();
    auto expected = pinned->second.find(nq.id);
    ASSERT_NE(expected, pinned->second.end()) << nq.id;
    EXPECT_EQ(CteBodies(*sql).size(), expected->second) << nq.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadCteTest,
                         ::testing::Values("micro", "lubm", "sp2bench",
                                           "dbpedia", "prbench"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

/// Eight change requests tracking three requirements: the priority-1
/// requirement r1 is tracked by cr1-cr4, r2 (priority 2) by cr3-cr6, and
/// r3 (priority 1) by cr6. cr1, cr3 and cr5 are open, the others closed;
/// cr1, cr2 and cr6 have an owner.
rdf::Graph ChangeRequests() {
  rdf::Graph g;
  auto iri = [](const std::string& local) {
    return Term::Iri("http://ex/" + local);
  };
  auto add = [&](const std::string& s, const std::string& p, Term o) {
    g.Add({iri(s), iri(p), std::move(o)});
  };
  add("r1", "priority", Term::Literal("1"));
  add("r2", "priority", Term::Literal("2"));
  add("r3", "priority", Term::Literal("1"));
  for (int i = 1; i <= 8; ++i) {
    const std::string cr = "cr" + std::to_string(i);
    if (i <= 4) add(cr, "tracks", iri("r1"));
    if (i >= 3 && i <= 6) add(cr, "tracks", iri("r2"));
    if (i == 6) add(cr, "tracks", iri("r3"));
    add(cr, "state", iri(i % 2 == 1 && i <= 5 ? "open" : "closed"));
    if (i == 1 || i == 2 || i == 6) add(cr, "owner", iri("u" + cr));
  }
  return g;
}

constexpr const char* kPrefix = "PREFIX : <http://ex/> ";

/// Every backend and flow mode against the reference; returns the most
/// readers any CTE had in DB2RDF's greedy SQL.
size_t ExpectAgreesWithReference(const std::string& sparql) {
  const rdf::Graph graph = ChangeRequests();
  const reference::Evaluator reference(graph);
  auto q = sparql::ParseQuery(sparql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return 0;
  auto expected = reference.Evaluate(*q, /*slice=*/false);
  EXPECT_TRUE(expected.ok()) << expected.status().ToString();
  if (!expected.ok()) return 0;
  EXPECT_FALSE(expected->rows.empty());
  size_t readers = 0;
  for (const auto& [name, backend] : LoadAll(graph)) {
    for (store::FlowMode mode : kModes) {
      store::QueryOptions opts;
      opts.flow = mode;
      auto got = backend->QueryWith(sparql, opts);
      EXPECT_TRUE(got.ok()) << name << ": " << got.status().ToString();
      if (!got.ok()) continue;
      auto sql = backend->TranslateWith(sparql, opts);
      EXPECT_EQ(reference::Diff(*q, *expected, got->vars, got->rows), "")
          << name << " (" << ModeName(mode) << ")\n"
          << (sql.ok() ? *sql : sql.status().ToString());
      if (name == "db2rdf" && mode == store::FlowMode::kGreedy && sql.ok()) {
        readers = MaxReaders(CteBodies(*sql));
      }
    }
  }
  return readers;
}

TEST(CteSharingTest, SharedCteFeedsUnionBranchesWithBagSemantics) {
  // Every branch repeats the `?cr :tracks ?r . ?r :priority "1"` chain;
  // the first two differ only in the constant of their last triple, and
  // the third is the chain alone, so each (?cr, ?r) comes out twice: once
  // from the state branch it matches and once from the chain.
  const std::string query =
      std::string(kPrefix) +
      "SELECT ?cr ?r WHERE { "
      "{ ?cr :tracks ?r . ?r :priority \"1\" . ?cr :state :open } UNION "
      "{ ?cr :tracks ?r . ?r :priority \"1\" . ?cr :state :closed } UNION "
      "{ ?cr :tracks ?r . ?r :priority \"1\" } }";
  EXPECT_GE(ExpectAgreesWithReference(query), 2u)
      << "no CTE is shared by the UNION branches";
}

TEST(CteSharingTest, SharedCteUnderProjectedOwnerBranches) {
  // The same chain under two branches that bind different variables: the
  // union carries NULLs, and a change request in both keeps both rows.
  const std::string query =
      std::string(kPrefix) +
      "SELECT ?cr ?o ?s WHERE { "
      "{ ?cr :tracks ?r . ?r :priority \"1\" . ?cr :owner ?o } UNION "
      "{ ?cr :tracks ?r . ?r :priority \"1\" . ?cr :state ?s } }";
  EXPECT_GE(ExpectAgreesWithReference(query), 2u)
      << "no CTE is shared by the UNION branches";
}

TEST(CteSharingTest, OptionalRepeatingTheMandatoryPart) {
  const std::string query =
      std::string(kPrefix) +
      "SELECT ?cr ?r ?o WHERE { ?cr :tracks ?r . ?r :priority \"1\" "
      "OPTIONAL { ?cr :tracks ?r . ?r :priority \"1\" . ?cr :owner ?o } }";
  ExpectAgreesWithReference(query);
}

TEST(CteSharingTest, OptionalRepeatingAUnionBranch) {
  const std::string query =
      std::string(kPrefix) +
      "SELECT ?cr ?r ?s WHERE { "
      "{ ?cr :tracks ?r . ?r :priority \"1\" } UNION "
      "{ ?cr :tracks ?r . ?r :priority \"2\" } "
      "OPTIONAL { ?cr :tracks ?r . ?r :priority \"1\" . ?cr :state ?s } }";
  ExpectAgreesWithReference(query);
}

}  // namespace
}  // namespace rdfrel::translate
