/// Snapshot compatibility: testdata/snapshot_compat/ holds one store
/// directory per backend (a snapshot plus a WAL; the DB2RDF WAL carries an
/// insert and a delete), written by the build whose sql::Value still had a
/// VARCHAR alternative, and answers.txt, the answers that build gave after
/// reopening them. The files are copied into a MemEnv, so the fixture is
/// never written, and each directory must reopen and answer every query
/// exactly as recorded.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/env.h"
#include "store/open.h"

namespace rdfrel::store {
namespace {

struct RecordedQuery {
  std::string store;
  std::string sparql;
  std::vector<std::string> rows;  ///< "row\t<term>\t..." lines
};

/// Parses answers.txt: a "store" line and a "query" line start each entry,
/// and its "row" lines follow.
std::vector<RecordedQuery> ReadAnswers(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<RecordedQuery> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("store\t", 0) == 0) {
      out.push_back({line.substr(6), "", {}});
    } else if (line.rfind("query\t", 0) == 0 && !out.empty()) {
      out.back().sparql = line.substr(6);
    } else if (line.rfind("row", 0) == 0 && !out.empty()) {
      out.back().rows.push_back(line);
    }
  }
  return out;
}

/// The rows of \p rs in answers.txt's form: sorted unless the query orders
/// them itself.
std::vector<std::string> Render(const ResultSet& rs, bool ordered) {
  std::vector<std::string> lines;
  for (const auto& row : rs.rows) {
    std::string line = "row";
    for (const auto& t : row) {
      line += "\t" + (t ? t->ToNTriples() : std::string("UNDEF"));
    }
    lines.push_back(std::move(line));
  }
  if (!ordered) std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(PersistTestCompat, SnapshotFromEarlierBuildAnswersIdentically) {
  const std::filesystem::path root = RDFREL_PERSIST_TESTDATA_DIR;
  const std::vector<RecordedQuery> recorded =
      ReadAnswers((root / "answers.txt").string());
  ASSERT_EQ(recorded.size(), 21u);  // 7 queries x 3 backends

  persist::MemEnv env;
  for (const char* kind : {"db2rdf", "triple", "predicate"}) {
    for (const auto& entry : std::filesystem::directory_iterator(root / kind)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      env.SetFile(std::string(kind) + "/" + entry.path().filename().string(),
                  bytes.str());
    }
  }
  PersistOptions opts;
  opts.env = &env;
  std::map<std::string, std::unique_ptr<SparqlStore>> stores;
  for (const RecordedQuery& q : recorded) {
    SCOPED_TRACE(q.store + ": " + q.sparql);
    auto& store = stores[q.store];
    if (store == nullptr) {
      auto opened = OpenStore(q.store, opts);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      store = std::move(*opened);
    }
    auto rs = store->Query(q.sparql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(Render(*rs, q.sparql.find("ORDER BY") != std::string::npos),
              q.rows);
  }
  EXPECT_EQ(stores.size(), 3u);
}

}  // namespace
}  // namespace rdfrel::store
