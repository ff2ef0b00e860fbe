/// \file persist_demo.cpp
/// Durability tour (DESIGN.md §9): build a store from N-Triples, attach
/// persistence, checkpoint, then reopen the directory — recovery loads the
/// newest valid snapshot and replays the WAL — and query it.
///
///   ./examples/persist_demo load  <dir> [file.nt]  build + checkpoint
///   ./examples/persist_demo query <dir> "<sparql>" recover + query
///   ./examples/persist_demo insert <dir> <s> <p> "<o>"  WAL-logged insert
///   ./examples/persist_demo stats <dir>            durability counters
///
/// `load` uses a small built-in dataset when no file is given, so the demo
/// runs standalone:
///
///   demo=./examples/persist_demo dir=/tmp/demo-store
///   $demo load "$dir"
///   $demo insert "$dir" http://ex/ElonMusk http://ex/founder http://ex/Tesla
///   $demo query "$dir" "SELECT ?p ?c WHERE { ?p <http://ex/founder> ?c }"
///   $demo stats "$dir"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "persist/persist_stats.h"
#include "rdf/ntriples.h"
#include "store/open.h"
#include "store/rdf_store.h"

namespace {

const char* kBuiltinData = R"(
<http://ex/CharlesFlint> <http://ex/born>    "1850" .
<http://ex/CharlesFlint> <http://ex/founder> <http://ex/IBM> .
<http://ex/LarryPage>    <http://ex/born>    "1973" .
<http://ex/LarryPage>    <http://ex/founder> <http://ex/Google> .
<http://ex/IBM>          <http://ex/industry> "Software" .
<http://ex/IBM>          <http://ex/industry> "Hardware" .
<http://ex/Google>       <http://ex/industry> "Software" .
)";

int Usage() {
  std::fprintf(stderr,
               "usage: persist_demo load <dir> [file.nt]\n"
               "       persist_demo query <dir> \"<sparql>\"\n"
               "       persist_demo insert <dir> <s-iri> <p-iri> <object>\n"
               "       persist_demo stats <dir>\n");
  return 2;
}

int CmdLoad(const std::string& dir, const char* path) {
  using namespace rdfrel;  // NOLINT
  std::string data = kBuiltinData;
  if (path != nullptr) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    data = buf.str();
  }
  auto triples = rdf::ParseNTriplesString(data);
  if (!triples.ok()) {
    std::cerr << "parse failed: " << triples.status().ToString() << "\n";
    return 1;
  }
  rdf::Graph graph;
  for (const auto& t : *triples) graph.Add(t);
  std::printf("parsed %llu triples\n",
              static_cast<unsigned long long>(graph.size()));

  auto store = store::RdfStore::Load(std::move(graph));
  if (!store.ok()) {
    std::cerr << store.status().ToString() << "\n";
    return 1;
  }
  // Attach durability: writes snapshot generation 1 into <dir> and starts
  // WAL-logging every committed mutation.
  if (auto st = (*store)->EnablePersistence(dir); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  // An explicit checkpoint demonstrates WAL rotation; a store closed
  // without one recovers by replaying its WAL instead.
  if (auto st = (*store)->Checkpoint(); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  // Capture stats before Close(): closing detaches the persistence
  // manager and zeroes the counters.
  const persist::PersistStats stats = (*store)->persist_stats();
  if (auto st = (*store)->Close(); !st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  std::printf("persisted to %s\n%s\n", dir.c_str(),
              stats.ToString().c_str());
  return 0;
}

int CmdQuery(const std::string& dir, const std::string& sparql) {
  using namespace rdfrel;  // NOLINT
  auto store = store::OpenStore(dir);  // recovery: snapshot + WAL replay
  if (!store.ok()) {
    std::cerr << store.status().ToString() << "\n";
    return 1;
  }
  std::printf("opened %s store (%llu replayed WAL records)\n",
              (*store)->name().c_str(),
              static_cast<unsigned long long>(
                  (*store)->persist_stats().replayed_records));
  auto result = (*store)->Query(sparql);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::printf("%s", result->ToString().c_str());
  return 0;
}

int CmdInsert(const std::string& dir, const std::string& s,
              const std::string& p, const std::string& o) {
  using namespace rdfrel;  // NOLINT
  auto store = store::RdfStore::Open(dir);
  if (!store.ok()) {
    std::cerr << store.status().ToString() << "\n";
    return 1;
  }
  rdf::Term object = o.rfind("http", 0) == 0 ? rdf::Term::Iri(o)
                                             : rdf::Term::Literal(o);
  // Returns once the mutation is WAL-durable (group commit by default).
  auto st = (*store)->Insert(
      {rdf::Term::Iri(s), rdf::Term::Iri(p), std::move(object)});
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  const uint64_t durable_lsn = (*store)->persist_stats().last_lsn;
  if (auto cl = (*store)->Close(); !cl.ok()) {
    std::cerr << cl.ToString() << "\n";
    return 1;
  }
  std::printf("inserted; durable at LSN %llu\n",
              static_cast<unsigned long long>(durable_lsn));
  return 0;
}

int CmdStats(const std::string& dir) {
  using namespace rdfrel;  // NOLINT
  auto store = store::OpenStore(dir);
  if (!store.ok()) {
    std::cerr << store.status().ToString() << "\n";
    return 1;
  }
  std::printf("%s\n", (*store)->persist_stats().ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  const std::string dir = argv[2];
  if (cmd == "load") return CmdLoad(dir, argc > 3 ? argv[3] : nullptr);
  if (cmd == "query" && argc == 4) return CmdQuery(dir, argv[3]);
  if (cmd == "insert" && argc == 6)
    return CmdInsert(dir, argv[3], argv[4], argv[5]);
  if (cmd == "stats") return CmdStats(dir);
  return Usage();
}
